type token =
  | Tok_iri of string
  | Tok_pname of string * string  (* prefix, local *)
  | Tok_var of string
  | Tok_dot
  | Tok_prefix_decl

exception Err of { line : int; col : int; msg : string }

let error line col fmt =
  Fmt.kstr (fun msg -> raise (Err { line; col; msg })) fmt

let is_ws c = c = ' ' || c = '\t' || c = '\r' || c = '\n'

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.'

(* Tokenise the whole document, tracking line and column numbers for
   error messages. Columns are 1-based byte offsets from the line start. *)
let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 in
  let line_start = ref 0 in
  let i = ref 0 in
  let col_of pos = pos - !line_start + 1 in
  let emit pos tok = tokens := (tok, !line, col_of pos) :: !tokens in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i;
      line_start := !i
    end
    else if is_ws c then incr i
    else if c = '#' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '.'
            && (!i + 1 >= n || is_ws src.[!i + 1] || src.[!i + 1] = '#')
    then begin
      emit !i Tok_dot;
      incr i
    end
    else if c = '<' then begin
      let start = !i + 1 in
      let j = ref start in
      while !j < n && src.[!j] <> '>' && src.[!j] <> '\n' do incr j done;
      if !j >= n || src.[!j] <> '>' then
        error !line (col_of !i) "unterminated IRI";
      if !j = start then error !line (col_of !i) "empty IRI";
      emit !i (Tok_iri (String.sub src start (!j - start)));
      i := !j + 1
    end
    else if c = '"' then begin
      (* literals are stored IRI-encoded; see Rdf.Literal *)
      match Literal.scan src !i with
      | Ok (literal, next) ->
          emit !i (Tok_iri (Iri.to_string (Literal.encode literal)));
          i := next
      | Error msg -> error !line (col_of !i) "%s" msg
    end
    else if c = '?' then begin
      let start = !i + 1 in
      let j = ref start in
      while !j < n && is_name_char src.[!j] do incr j done;
      if !j = start then error !line (col_of !i) "empty variable name";
      emit !i (Tok_var (String.sub src start (!j - start)));
      i := !j
    end
    else if c = '@' then begin
      let start = !i + 1 in
      let j = ref start in
      while !j < n && is_name_char src.[!j] do incr j done;
      let word = String.sub src start (!j - start) in
      if word <> "prefix" then
        error !line (col_of !i) "unknown directive @%s" word;
      emit !i Tok_prefix_decl;
      i := !j
    end
    else if is_name_char c || c = ':' then begin
      let start = !i in
      let j = ref start in
      (* '@' may occur inside a name (mailto:a@b) but never starts one —
         a leading '@' is a directive, handled above. *)
      while !j < n && (is_name_char src.[!j] || src.[!j] = ':' || src.[!j] = '@') do
        incr j
      done;
      let word = String.sub src start (!j - start) in
      (* A trailing '.' is a statement terminator, not part of the name. *)
      let word, extra_dot =
        if String.length word > 1 && word.[String.length word - 1] = '.' then
          (String.sub word 0 (String.length word - 1), true)
        else (word, false)
      in
      (match String.index_opt word ':' with
      | Some k ->
          emit start
            (Tok_pname
               (String.sub word 0 k, String.sub word (k + 1) (String.length word - k - 1)))
      | None ->
          error !line (col_of start) "expected a prefixed name or IRI, got %S"
            word);
      if extra_dot then emit (!j - 1) Tok_dot;
      i := !j
    end
    else error !line (col_of !i) "unexpected character %C" c
  done;
  (List.rev !tokens, !line)

let resolve prefixes line col prefix local =
  let s =
    match List.assoc_opt prefix prefixes with
    | Some expansion -> expansion ^ local
    | None ->
        (* Undeclared prefixes denote themselves, matching the query parser:
           [p:knows] is the IRI "p:knows". *)
        prefix ^ ":" ^ local
  in
  if s = "" then error line col "empty IRI after prefix expansion"
  else Iri.of_string s

let parse_tokens (tokens, last_line) =
  let rec statements prefixes acc = function
    | [] -> List.rev acc
    | (Tok_prefix_decl, line, col) :: rest -> (
        match rest with
        | (Tok_pname (prefix, ""), _, _) :: (Tok_iri iri, _, _)
          :: (Tok_dot, _, _) :: rest ->
            statements ((prefix, iri) :: prefixes) acc rest
        | _ -> error line col "malformed @prefix declaration")
    | rest ->
        let term rest =
          match rest with
          | (Tok_iri iri, _, _) :: rest -> (Term.iri iri, rest)
          | (Tok_pname (prefix, local), line, col) :: rest ->
              (Term.Iri (resolve prefixes line col prefix local), rest)
          | (Tok_var v, _, _) :: rest -> (Term.var v, rest)
          | (_, line, col) :: _ -> error line col "expected a term"
          | [] -> error last_line 1 "unexpected end of input in triple"
        in
        let s, rest = term rest in
        let p, rest = term rest in
        let o, rest = term rest in
        let rest =
          match rest with
          | (Tok_dot, _, _) :: rest -> rest
          | (_, line, col) :: _ -> error line col "expected '.' after triple"
          | [] -> error last_line 1 "missing final '.'"
        in
        statements prefixes (Triple.make s p o :: acc) rest
  in
  statements [] [] tokens

let located ?source src parse =
  (* Every failure — including defensive catches of [Invalid_argument]
     from term constructors — surfaces as a structured parse error; no
     exception escapes. *)
  match parse (tokenize src) with
  | v -> Ok v
  | exception Err { line; col; msg } ->
      Error (Wdsparql_error.Parse_error { source = Option.value source ~default:"input"; line; col; msg })
  | exception Invalid_argument msg ->
      Error (Wdsparql_error.Parse_error { source = Option.value source ~default:"input"; line = 1; col = 1; msg })

let parse_triples_err ?source src = located ?source src parse_tokens

let parse_ground_err ?source src =
  match parse_triples_err ?source src with
  | Error _ as e -> e
  | Ok triples -> (
      match List.find_opt (fun t -> not (Triple.is_ground t)) triples with
      | None -> Ok triples
      | Some t ->
          Error
            (Wdsparql_error.Invalid_input
               (Fmt.str "non-ground triple in data: %a" Triple.pp t)))

let parse_graph_err ?source src =
  Result.map Graph.of_triples (parse_ground_err ?source src)

let parse_triples src =
  Result.map_error Wdsparql_error.to_string (parse_triples_err src)

let parse_graph src =
  Result.map_error Wdsparql_error.to_string (parse_graph_err src)

let abbreviate prefixes iri =
  match Literal.decode iri with
  | Some literal -> Literal.to_turtle literal
  | None ->
      let s = Iri.to_string iri in
      let rec go = function
        | [] -> Printf.sprintf "<%s>" s
        | (prefix, expansion) :: rest ->
            let n = String.length expansion in
            if String.length s > n && String.sub s 0 n = expansion then
              Printf.sprintf "%s:%s" prefix (String.sub s n (String.length s - n))
            else go rest
      in
      go prefixes

let to_string ?(prefixes = []) graph =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (prefix, expansion) ->
      Buffer.add_string buf (Printf.sprintf "@prefix %s: <%s> .\n" prefix expansion))
    prefixes;
  if prefixes <> [] then Buffer.add_char buf '\n';
  let term t =
    match t with
    | Term.Iri iri -> abbreviate prefixes iri
    | Term.Var v -> "?" ^ Variable.to_string v
  in
  List.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s %s .\n" (term t.Triple.s) (term t.Triple.p)
           (term t.Triple.o)))
    (Graph.triples graph);
  Buffer.contents buf
