(* Expected answers come from the reference evaluator, Sparql.Eval (the
   recursive semantics of Pérez et al.), computed before any timing. The
   program's answers are read back from its SPARQL JSON and its CLI
   output and compared with them as sets of mappings. *)

open Sparql
module J = Analysis.Json

let reference_timeout = 20.

let reference graph text =
  match Parser.parse text with
  | Error e -> Error ("query does not parse: " ^ e)
  | Ok p -> (
      let budget = Resource.Budget.make ~timeout:reference_timeout () in
      match Eval.eval ~budget p graph with
      | s -> Ok s
      | exception Resource.Budget.Exhausted _ ->
          Error "reference evaluator ran out of its 20 s budget")

let iri s =
  let n = String.length s in
  if n >= 2 && s.[0] = '<' && s.[n - 1] = '>' then String.sub s 1 (n - 2) else s

(* The bindings of a SPARQL JSON results document. *)
let of_json body =
  let rows =
    match J.of_string body with
    | Ok doc ->
        Option.bind (J.member "results" doc) (J.member "bindings")
        |> Fun.flip Option.bind J.to_list
    | Error _ -> None
  in
  let cell (v, c) =
    match Option.bind (J.member "value" c) J.to_str with
    | Some value -> (Rdf.Variable.of_string v, Rdf.Iri.of_string value)
    | None -> raise Exit
  in
  match rows with
  | None -> None
  | Some rows -> (
      try
        Some
          (Mapping.Set.of_list
             (List.map
                (function
                  | J.Obj fields -> Mapping.of_list (List.map cell fields)
                  | _ -> raise Exit)
                rows))
      with Exit | Invalid_argument _ -> None)

(* [wdsparql eval] output: "N solution(s)", then one "{?x ↦ iri, ...}"
   per solution, which the pretty-printer may wrap across lines. *)
let of_cli out =
  match String.index_opt out '\n' with
  | None -> None
  | Some i -> (
      let rest =
        String.map (fun c -> if c = '\n' then ' ' else c)
          (String.sub out (i + 1) (String.length out - i - 1))
      in
      let binding b =
        match String.split_on_char ' ' (String.trim b) with
        | [ v; _arrow; value ] ->
            (Rdf.Variable.of_string v, Rdf.Iri.of_string (iri value))
        | _ -> raise Exit
      in
      let mapping chunk =
        let chunk = String.trim chunk in
        if chunk = "" then None
        else if chunk.[0] <> '{' then raise Exit
        else
          let inner = String.trim (String.sub chunk 1 (String.length chunk - 1)) in
          if inner = "" then Some Mapping.empty
          else
            Some (Mapping.of_list (List.map binding (String.split_on_char ',' inner)))
      in
      match
        ( Scanf.sscanf (String.sub out 0 i) "%d solution(s)" Fun.id,
          List.filter_map mapping (String.split_on_char '}' rest) )
      with
      | n, ms when n = List.length ms ->
          let set = Mapping.Set.of_list ms in
          if Mapping.Set.cardinal set = n then Some set else None
      | _ -> None
      | exception (Exit | Invalid_argument _ | Scanf.Scan_failure _ | End_of_file
                   | Failure _) ->
          None)
