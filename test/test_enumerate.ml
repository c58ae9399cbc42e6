(* The top-down walk and the id-row writer. The contract under test:
   [Enumerate.solutions] equals the reference evaluator under every
   maximality and optimizer mode, UNION forests included;
   [Enumerate.count] counts the same answers without decoding them; a
   tripped cap hands the child to the pebble game, which refutes it; a
   single tree builds each answer once; and the writer's bytes are
   exactly those of [Fmt.pr "%a@." Sparql.Mapping.pp] over the answer
   set. *)

open Rdf
module Enumerate = Wd_core.Enumerate
module Plan_cache = Wd_core.Plan_cache
module Row_writer = Wd_core.Row_writer

let check = Alcotest.check

let seeds =
  QCheck.make
    ~print:(fun (g, q) -> Printf.sprintf "graph seed %d, query seed %d" g q)
    QCheck.Gen.(pair Testutil.seed_gen Testutil.seed_gen)

(* ------------------------------------------------------------------ *)
(* The walk against the reference evaluator                            *)
(* ------------------------------------------------------------------ *)

let configurations =
  List.concat_map
    (fun maximality ->
      List.map (fun optimize -> (maximality, optimize)) [ `On; `Off ])
    [ `Hom; `Pebble 1; `Pebble 2 ]

let walk_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40
       ~name:"solutions = Sparql.Eval over maximality x optimize"
       seeds (fun (gseed, qseed) ->
         let g = Testutil.graph_of_seed ~nodes:6 ~preds:2 ~triples:16 gseed in
         let p = Testutil.wd_pattern_of_seed ~union:2 ~triples:6 qseed in
         let forest = Wdpt.Pattern_forest.of_algebra p in
         let reference = Sparql.Eval.eval p g in
         List.for_all
           (fun (maximality, optimize) ->
             let got = Enumerate.solutions ~maximality ~optimize forest g in
             Sparql.Mapping.Set.equal got reference
             && Enumerate.count ~maximality ~optimize forest g
                = Sparql.Mapping.Set.cardinal reference)
           configurations))

(* F_6 on a tournament with no transitive 6-clique: answers are exact in
   every configuration, and at k = dw = 1 the clique child's search
   trips its cap |adom|^2 and the game refutes it (at k = 2 the cap is
   |adom|^3, which the search fits under). *)
let test_refuter () =
  let forest = Workload.Query_families.f_k 6 in
  let g = fst (Workload.Graph_families.tournament_instance ~seed:1 ~n:9) in
  let reference =
    Sparql.Eval.eval (Wdpt.Pattern_forest.to_algebra forest) g
  in
  List.iter
    (fun (maximality, optimize) ->
      let cache = Plan_cache.create () in
      let got = Enumerate.solutions ~maximality ~optimize ~cache forest g in
      let s = Plan_cache.stats cache in
      let label =
        Printf.sprintf "%s, optimize %s"
          (match maximality with
          | `Hom -> "hom"
          | `Pebble k -> Printf.sprintf "pebble %d" k)
          (if optimize = `On then "on" else "off")
      in
      check Alcotest.bool ("answers = Sparql.Eval: " ^ label) true
        (Sparql.Mapping.Set.equal got reference);
      if maximality = `Pebble 1 then
        check Alcotest.bool ("the cap tripped and the game answered: " ^ label)
          true
          (s.Plan_cache.joins.capped > 0
          && s.Plan_cache.joins.pebble_answers > 0))
    configurations

(* A single tree emits each answer once; the comb's joins are one per
   parent row and child, and each finds its first extension (or runs
   out) well inside the cap, so no pebble game is compiled. *)
let test_one_row_per_answer () =
  let tree = Workload.Query_families.comb_query 3 in
  let g = Generator.random_graph ~seed:3 ~n:12 ~predicates:[ "p"; "t" ] ~m:40 in
  let cache = Plan_cache.create () in
  let answers = Enumerate.solutions ~maximality:(`Pebble 1) ~cache [ tree ] g in
  let s = Plan_cache.stats cache in
  check Alcotest.bool "non-trivial answers" true
    (Sparql.Mapping.Set.cardinal answers > 1);
  check Alcotest.bool "answers match the reference" true
    (Sparql.Mapping.Set.equal answers
       (Sparql.Eval.eval (Wdpt.Pattern_forest.to_algebra [ tree ]) g));
  check Alcotest.int "no pebble game compiled" 0
    s.Plan_cache.pebble.Wd_core.Pebble_cache.compiled;
  check Alcotest.int "rows = answers"
    (Sparql.Mapping.Set.cardinal answers) s.Plan_cache.rows;
  check (Alcotest.float 0.) "one candidate per answer" 1.
    (Plan_cache.candidates_per_answer s);
  (* every extension of a node is one parent row of each of its
     children *)
  let rec parent_rows n =
    match Wdpt.Pattern_tree.parent tree n with
    | None -> 0
    | Some _ -> (Plan_cache.node_joins cache g tree n).Plan_cache.runs
  and check_node n =
    let ext = (Plan_cache.node_joins cache g tree n).Plan_cache.extensions in
    List.iter
      (fun c ->
        if n <> Wdpt.Pattern_tree.root then
          check Alcotest.int
            (Printf.sprintf "node %d: one join per extension of its parent" c)
            ext (parent_rows c);
        check_node c)
      (Wdpt.Pattern_tree.children tree n)
  in
  check_node Wdpt.Pattern_tree.root

(* [max_solutions] still trips inside the walk, before the answer set is
   complete. *)
let test_solution_cap () =
  let tree = Workload.Query_families.star_query 4 in
  let g =
    Generator.random_graph ~seed:5 ~n:12
      ~predicates:(List.init 5 (Printf.sprintf "c%d"))
      ~m:60
  in
  let all = Enumerate.count [ tree ] g in
  check Alcotest.bool "more than one answer" true (all > 1);
  let seen = ref 0 in
  match
    Enumerate.iter_rows
      ~budget:(Resource.Budget.make ~max_solutions:1 ())
      [ tree ] g
      (fun _ -> incr seen)
  with
  | () -> Alcotest.fail "a one-solution cap should trip"
  | exception Resource.Budget.Exhausted _ ->
      check Alcotest.int "one row reached the sink" 1 !seen

(* ------------------------------------------------------------------ *)
(* The writer against Format                                           *)
(* ------------------------------------------------------------------ *)

let fmt_bytes set =
  String.concat ""
    (List.map (Fmt.str "%a@." Sparql.Mapping.pp)
       (Sparql.Mapping.Set.elements set))

let writer_bytes vars iri rows =
  let buf = Buffer.create 256 in
  Row_writer.write buf (Row_writer.of_rows vars iri rows);
  Buffer.contents buf

(* Random rows over a sorted variable table of up to 12 variables, with
   prefixed and bracketed IRIs whose lengths put bindings on both sides
   of column 78. Rows are drawn with replacement from a small set, so
   some repeat, as a UNION forest's rows overlap. *)
let rows_gen =
  let open QCheck.Gen in
  let name lo hi =
    map2
      (fun n c -> String.make n c)
      (int_range lo hi)
      (oneofl [ 'a'; 'b'; 'z' ])
  in
  let iri =
    map2
      (fun prefixed s ->
        if prefixed then "n:" ^ s else "http://example.org/" ^ s)
      bool (name 1 40)
  in
  int_range 0 12 >>= fun width ->
  list_repeat width (name 1 12) >>= fun names ->
  list_size (int_range 1 30) iri >>= fun iris ->
  let vars =
    Array.of_list
      (Variable.Set.elements
         (Variable.Set.of_list
            (List.mapi (fun i n -> Variable.of_string (n ^ string_of_int i))
               names)))
  in
  (* a dictionary holds each IRI once *)
  let iris = Array.of_list (List.sort_uniq String.compare iris) in
  let row =
    array_repeat (Array.length vars)
      (frequency
         [ (1, return (-1)); (4, int_bound (Array.length iris - 1)) ])
  in
  list_size (int_range 1 8) row >>= fun distinct ->
  list_size (int_range 0 20) (oneofl distinct) >|= fun rows ->
  (vars, iris, rows)

let print_rows (vars, iris, rows) =
  Printf.sprintf "vars [%s]\niris [%s]\nrows\n%s"
    (String.concat "; " (Array.to_list (Array.map Variable.to_string vars)))
    (String.concat "; " (Array.to_list iris))
    (String.concat "\n"
       (List.map
          (fun r ->
            String.concat " " (Array.to_list (Array.map string_of_int r)))
          rows))

let writer_golden =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"writer bytes = Fmt Mapping.pp"
       (QCheck.make ~print:print_rows rows_gen)
       (fun (vars, iris, rows) ->
         let iri id = Iri.of_string iris.(id) in
         let set =
           Sparql.Mapping.Set.of_list
             (List.map
                (fun row ->
                  let m = ref Sparql.Mapping.empty in
                  Array.iteri
                    (fun i id ->
                      if id >= 0 then
                        m := Sparql.Mapping.add vars.(i) (iri id) !m)
                    row;
                  !m)
                rows)
         in
         let t = Row_writer.of_rows vars iri rows in
         Row_writer.cardinal t = Sparql.Mapping.Set.cardinal set
         && writer_bytes vars iri rows = fmt_bytes set))

(* Hand-picked rows on the margin: a binding that ends exactly where
   Format breaks, one past it, and the last binding, which always goes
   on a line of its own. *)
let test_writer_margin () =
  let vars = Array.map Variable.of_string [| "a"; "b"; "c" |] in
  List.iter
    (fun len ->
      let iris = [| "n:" ^ String.make len 'x'; "n:y"; "n:z" |] in
      let iri id = Iri.of_string iris.(id) in
      let rows = [ [| 0; 1; 2 |]; [| 1; -1; 0 |]; [| -1; -1; -1 |] ] in
      let set =
        Sparql.Mapping.Set.of_list
          [
            Sparql.Mapping.of_list
              [ (vars.(0), iri 0); (vars.(1), iri 1); (vars.(2), iri 2) ];
            Sparql.Mapping.of_list [ (vars.(0), iri 1); (vars.(2), iri 0) ];
            Sparql.Mapping.empty;
          ]
      in
      check Alcotest.string
        (Printf.sprintf "IRI of length %d" (len + 2))
        (fmt_bytes set) (writer_bytes vars iri rows))
    (List.init 80 Fun.id)

(* The engine's rows, written: the old printer's bytes over the old
   answer set, on the paper's query families. *)
let test_engine_rows () =
  let tournament n =
    fst (Workload.Graph_families.tournament_instance ~seed:1 ~n)
  in
  let shapes preds =
    Generator.random_graph ~seed:7 ~n:12 ~predicates:preds ~m:40
  in
  List.iter
    (fun (name, forest, g) ->
      let pattern = Wdpt.Pattern_forest.to_algebra forest in
      let plan = Wd_core.Engine.plan pattern in
      let old = Wd_core.Engine.solutions plan g in
      let buf = Buffer.create 1024 in
      let rows = Wd_core.Engine.answer_rows plan g in
      Row_writer.write buf rows;
      check Alcotest.int (name ^ ": count")
        (Sparql.Mapping.Set.cardinal old)
        (Row_writer.cardinal rows);
      check Alcotest.int (name ^ ": Engine.count")
        (Sparql.Mapping.Set.cardinal old)
        (Wd_core.Engine.count plan g);
      check Alcotest.string (name ^ ": bytes") (fmt_bytes old)
        (Buffer.contents buf))
    [
      ("f4", Workload.Query_families.f_k 4, tournament 8);
      ("clique_child 3", [ Workload.Query_families.clique_child 3 ],
       tournament 8);
      ("comb 3", [ Workload.Query_families.comb_query 3 ], shapes [ "p"; "t" ]);
      ("star 4", [ Workload.Query_families.star_query 4 ],
       shapes (List.init 5 (Printf.sprintf "c%d")));
      ("path 4", [ Workload.Query_families.path_query 4 ], shapes [ "p" ]);
    ]

(* The streamed writer hands a channel the bytes of [write], also when
   they span several 64 KiB chunks. *)
let test_output_streams () =
  let vars = Array.map Variable.of_string [| "a"; "b"; "c" |] in
  let iri id = Iri.of_string (Printf.sprintf "n:node%05d" id) in
  let rows =
    List.init 5000 (fun i ->
        [| i; (i * 7) mod 5000; (if i mod 3 = 0 then -1 else i mod 11) |])
  in
  let t = Row_writer.of_rows vars iri rows in
  let buf = Buffer.create 256 in
  Row_writer.write buf t;
  let file = Filename.temp_file "rows" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> Row_writer.output oc t);
      let streamed = In_channel.with_open_bin file In_channel.input_all in
      check Alcotest.bool "spans several chunks" true
        (String.length streamed > 3 * 65536);
      check Alcotest.string "output = write" (Buffer.contents buf) streamed)

let () =
  Alcotest.run "enumerate"
    [
      ( "walk",
        [
          walk_differential;
          Alcotest.test_case "a tripped cap asks the game to refute" `Quick
            test_refuter;
          Alcotest.test_case "one row per answer on a tree" `Quick
            test_one_row_per_answer;
          Alcotest.test_case "max_solutions trips in the walk" `Quick
            test_solution_cap;
        ] );
      ( "writer",
        [
          writer_golden;
          Alcotest.test_case "bindings on the margin" `Quick test_writer_margin;
          Alcotest.test_case "engine rows print the old bytes" `Quick
            test_engine_rows;
          Alcotest.test_case "output streams the bytes of write" `Quick
            test_output_streams;
        ] );
    ]
