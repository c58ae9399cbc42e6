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

(* A root with children X, Y and Z, Z with children K0 and K1, where X
   has two extensions, Y none, and Z's extensions differ on whether K0
   extends them. The walk skips the left-out Y while later siblings
   still have alternatives to choose, so each child it reaches must be
   the one of its own node match, not a child some deeper node pushed
   in its place. Every order of the root's children is tried. *)
let test_left_out_sibling () =
  let t s p o = Triple.make (Term.iri s) (Term.iri p) (Term.iri o) in
  let g =
    Graph.of_triples
      [
        t "n:r" "p:r" "n:a";
        t "n:r" "p:x" "n:x1";
        t "n:r" "p:x" "n:x2";
        t "n:r" "p:z" "n:z1";
        t "n:r" "p:z" "n:z2";
        t "n:z1" "p:k0" "n:k1";
        t "n:z1" "p:k0" "n:k2";
        t "n:z2" "p:k1" "n:k3";
      ]
  in
  let x = "OPTIONAL { ?r p:x ?x }"
  and y = "OPTIONAL { ?r p:y ?y }"
  and z =
    "OPTIONAL { ?r p:z ?z OPTIONAL { ?z p:k0 ?k0 } OPTIONAL { ?z p:k1 ?k1 } }"
  in
  List.iter
    (fun (a, b, c) ->
      let src = Printf.sprintf "{ ?r p:r ?a %s %s %s }" a b c in
      let p = Sparql.Parser.parse_exn src in
      let forest = Wdpt.Pattern_forest.of_algebra p in
      let reference = Sparql.Eval.eval p g in
      check Alcotest.int ("six answers: " ^ src) 6
        (Sparql.Mapping.Set.cardinal reference);
      List.iter
        (fun (maximality, optimize) ->
          check Testutil.mapping_set ("solutions: " ^ src) reference
            (Enumerate.solutions ~maximality ~optimize forest g);
          check Alcotest.int ("count: " ^ src)
            (Sparql.Mapping.Set.cardinal reference)
            (Enumerate.count ~maximality ~optimize forest g))
        configurations)
    [ (x, y, z); (x, z, y); (y, x, z); (y, z, x); (z, x, y); (z, y, x) ]

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

(* The writer at scale: up to 5,000 rows of widths 0–12, with ids drawn
   sparsely from [0, 2^40) and many sharing their low 12 bits, so they
   collide modulo any table size up to 4,096. Rows repeat, as a UNION
   forest's do. *)
let scale_gen =
  let open QCheck.Gen in
  int_range 0 12 >>= fun width ->
  int_range 1 300 >>= fun n_iris ->
  let iri_names =
    Array.init n_iris (fun j ->
        if j mod 3 = 0 then Printf.sprintf "n:%d" j
        else Printf.sprintf "http://example.org/%s%d" (String.make (j mod 37) 'x') j)
  in
  list_repeat n_iris
    (map2 (fun hi lo -> (hi lsl 12) lor lo) (int_bound ((1 lsl 28) - 1)) (int_bound 3))
  >>= fun ids ->
  (* a dictionary holds each IRI once, under one id *)
  let ids = Array.of_list (List.sort_uniq Int.compare ids) in
  let vars =
    Array.init width (fun i -> Variable.of_string (Printf.sprintf "v%02d" i))
  in
  let row =
    array_repeat width
      (frequency
         [ (1, return (-1)); (4, map (Array.get ids) (int_bound (Array.length ids - 1))) ])
  in
  int_range 1 2500 >>= fun n_distinct ->
  array_repeat n_distinct row >>= fun distinct ->
  int_range 0 5000 >>= fun n ->
  list_repeat n (map (Array.get distinct) (int_bound (n_distinct - 1)))
  >|= fun rows ->
  let name = Hashtbl.create 64 in
  Array.iteri (fun j id -> Hashtbl.replace name id iri_names.(j)) ids;
  (vars, name, rows)

let writer_at_scale =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40
       ~name:"writer at scale: bytes, cardinal and bindings = Mapping.Set"
       (QCheck.make
          ~print:(fun (vars, _, rows) ->
            Printf.sprintf "width %d, %d rows" (Array.length vars)
              (List.length rows))
          scale_gen)
       (fun (vars, name, rows) ->
         let iri id = Iri.of_string (Hashtbl.find name id) in
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
         let iris = Row_writer.iris t in
         let bindings_agree () =
           List.for_all2
             (fun i mu ->
               let ok = ref true in
               Array.iteri
                 (fun k v ->
                   let r = Row_writer.binding t i k in
                   match Sparql.Mapping.find v mu with
                   | None -> if r <> -1 then ok := false
                   | Some x -> if r < 0 || not (Iri.equal iris.(r) x) then ok := false)
                 vars;
               !ok)
             (List.init (Row_writer.cardinal t) Fun.id)
             (Sparql.Mapping.Set.elements set)
         in
         Row_writer.cardinal t = Sparql.Mapping.Set.cardinal set
         && bindings_agree ()
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
          Alcotest.test_case "a left-out sibling keeps the walk's order"
            `Quick test_left_out_sibling;
          Alcotest.test_case "max_solutions trips in the walk" `Quick
            test_solution_cap;
        ] );
      ( "writer",
        [
          writer_golden;
          writer_at_scale;
          Alcotest.test_case "bindings on the margin" `Quick test_writer_margin;
          Alcotest.test_case "engine rows print the old bytes" `Quick
            test_engine_rows;
          Alcotest.test_case "output streams the bytes of write" `Quick
            test_output_streams;
        ] );
    ]
