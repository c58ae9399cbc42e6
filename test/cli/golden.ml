(* Usage: golden.exe WDSPARQL. Writes each instance's data and query to
   the working directory, runs [WDSPARQL eval] on them and compares its
   standard output with the Format printer's bytes over
   [Engine.solutions]. Exits 1 on the first difference. *)

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  Buffer.contents buf

let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = read_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ ->
      Printf.eprintf "%s %s: failed\n" exe (String.concat " " args);
      exit 1

let write path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let expected forest graph =
  let plan = Wd_core.Engine.plan (Wdpt.Pattern_forest.to_algebra forest) in
  let answers = Wd_core.Engine.solutions plan graph in
  Fmt.str "%d solution(s)@." (Sparql.Mapping.Set.cardinal answers)
  ^ String.concat ""
      (List.map (Fmt.str "%a@." Sparql.Mapping.pp)
         (Sparql.Mapping.Set.elements answers))

let () =
  let exe = Sys.argv.(1) in
  let tournament n =
    fst (Workload.Graph_families.tournament_instance ~seed:1 ~n)
  in
  let shapes preds =
    Rdf.Generator.random_graph ~seed:7 ~n:12 ~predicates:preds ~m:40
  in
  let module Q = Workload.Query_families in
  let stars = List.init 6 (Printf.sprintf "c%d") in
  List.iter
    (fun (name, forest, graph) ->
      let data = name ^ ".nt" and query = name ^ ".rq" in
      write data (Rdf.Ntriples.to_string graph);
      write query
        (Sparql.Printer.to_string (Wdpt.Pattern_forest.to_algebra forest));
      let want = expected forest graph in
      let got = run exe [ "eval"; "-d"; data; "-q"; query ] in
      if got <> want then begin
        Printf.eprintf "%s: output differs\n--- want\n%s--- got\n%s" name
          want got;
        exit 1
      end)
    [
      ("f4", Q.f_k 4, tournament 8);
      ("f6", Q.f_k 6, tournament 9);
      ("clique_child3", [ Q.clique_child 3 ], tournament 8);
      ("comb3", [ Q.comb_query 3 ], shapes [ "p"; "t" ]);
      ("star5", [ Q.star_query 5 ], shapes stars);
      ("path4", [ Q.path_query 4 ], shapes [ "p" ]);
    ]
