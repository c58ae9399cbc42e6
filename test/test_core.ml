open Wd_core
open Workload

let check = Alcotest.check

let qcheck ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let parse = Sparql.Parser.parse_exn

(* ------------------------------------------------------------------ *)
(* Branch treewidth (Definition 3, Section 3.2)                        *)
(* ------------------------------------------------------------------ *)

let test_bw_families () =
  List.iter
    (fun k ->
      check Alcotest.int
        (Printf.sprintf "bw(T'_%d) = 1" k)
        1
        (Branch_treewidth.of_tree (Query_families.t_prime_k k));
      check Alcotest.int
        (Printf.sprintf "bw(clique_child %d) = k-1" k)
        (k - 1)
        (Branch_treewidth.of_tree (Query_families.clique_child k)))
    [ 2; 3; 4; 5 ];
  check Alcotest.int "bw(path) = 1" 1
    (Branch_treewidth.of_tree (Query_families.path_query 5));
  check Alcotest.int "bw(star) = 1" 1
    (Branch_treewidth.of_tree (Query_families.star_query 5));
  check Alcotest.int "bw(comb) = 1" 1
    (Branch_treewidth.of_tree (Query_families.comb_query 4));
  check Alcotest.int "bw(grid 3x4) = 3" 3
    (Branch_treewidth.of_tree (Query_families.grid_query ~rows:3 ~cols:4))

let test_bw_root_rejected () =
  let tree = Query_families.t_prime_k 2 in
  Alcotest.check_raises "root has no branch"
    (Invalid_argument "Branch_treewidth.branch_gtgraph: the root has no branch")
    (fun () -> ignore (Branch_treewidth.branch_gtgraph tree 0))

let test_bw_of_pattern () =
  check Alcotest.int "parsed pattern" 1
    (Branch_treewidth.of_pattern
       (parse "{ ?x p:a ?y . OPTIONAL { ?y p:b ?z } }"))

(* ------------------------------------------------------------------ *)
(* Local tractability                                                  *)
(* ------------------------------------------------------------------ *)

let test_local_tractability () =
  List.iter
    (fun k ->
      check Alcotest.int
        (Printf.sprintf "lt(T'_%d) = k-1" k)
        (k - 1)
        (Local_tractability.width_of_tree (Query_families.t_prime_k k));
      check Alcotest.int
        (Printf.sprintf "lt(F_%d) = k-1" k)
        (k - 1)
        (Local_tractability.width_of_forest (Query_families.f_k k)))
    [ 2; 3; 4; 5 ];
  check Alcotest.int "lt(path) = 1" 1
    (Local_tractability.width_of_tree (Query_families.path_query 4))

(* ------------------------------------------------------------------ *)
(* Domination width (Definitions 1-2, Example 5)                       *)
(* ------------------------------------------------------------------ *)

let test_example5 () =
  (* dw(F_k) = 1 for every k: bounded domination width despite local
     intractability *)
  List.iter
    (fun k ->
      check Alcotest.int (Printf.sprintf "dw(F_%d) = 1" k) 1
        (Domination_width.of_forest (Query_families.f_k k)))
    [ 2; 3; 4; 5 ]

let test_dw_families () =
  List.iter
    (fun k ->
      check Alcotest.int "dw(T'_k) = 1" 1
        (Domination_width.of_forest [ Query_families.t_prime_k k ]);
      check Alcotest.int "dw(clique_child) = k-1" (k - 1)
        (Domination_width.of_forest [ Query_families.clique_child k ]))
    [ 2; 3; 4 ];
  check Alcotest.int "dw(grid 2x3) = 2" 2
    (Domination_width.of_forest [ Query_families.grid_query ~rows:2 ~cols:3 ])

let test_domination_level () =
  check Alcotest.int "empty family" 1 (Domination_width.domination_level []);
  check Alcotest.bool "empty always dominated" true
    (Domination_width.dominated_at [] 1)

let test_profile () =
  let forest = Query_families.f_k 3 in
  let profile = Domination_width.profile forest in
  (* subtrees: T1 has 4, T2 and T3 have 2 each *)
  check Alcotest.int "profiled subtrees" 8 (List.length profile);
  List.iter
    (fun entry ->
      check Alcotest.bool "level <= 1 everywhere for F_k" true
        (entry.Domination_width.level <= 1))
    profile;
  (* the root subtree of T1 exhibits non-trivial domination: its GtG
     contains a member of ctw 2 dominated by one of ctw 1 *)
  let root_entry =
    List.find
      (fun e ->
        e.Domination_width.tree_index = 0
        && e.Domination_width.subtree_members = [ 0 ])
      profile
  in
  check Alcotest.(list int) "ctws of GtG(T1[r1])" [ 1; 2 ]
    (List.sort compare root_entry.Domination_width.gtg_ctws)

(* The eager Definition-2 computation the library used before it went
   lazy: every member's ctw up front, then the least candidate level at
   which the members of ctw <= k dominate the rest. Kept as the oracle
   for the lazy level. *)
let eager_level family =
  let with_ctw = List.map (fun g -> (Tgraphs.Cores.ctw g, g)) family in
  let dominated k =
    List.for_all
      (fun (c, g) ->
        c <= k
        || List.exists
             (fun (c', g') -> c' <= k && Tgraphs.Gtgraph.maps_to g' g)
             with_ctw)
      with_ctw
  in
  List.find dominated (List.sort_uniq compare (1 :: List.map fst with_ctw))

let subtrees forest =
  List.concat_map
    (fun tree -> Wdpt.Subtree.all tree)
    forest

let eager_of_forest forest =
  List.fold_left
    (fun acc st ->
      max acc (eager_level (Wdpt.Children_assignment.gtg forest st)))
    1 (subtrees forest)

let lazy_equals_eager_forests =
  qcheck ~count:150 "lazy dw = eager dw on random forests (UNION included)"
    (QCheck.make ~print:string_of_int Testutil.seed_gen)
    (fun seed ->
      let p =
        Testutil.wd_pattern_of_seed ~triples:7 ~vars:5 ~union:(1 + (seed mod 3))
          ~depth:3 seed
      in
      let forest = Wdpt.Pattern_forest.of_algebra p in
      Domination_width.of_forest forest = eager_of_forest forest
      && List.for_all
           (fun st ->
             let gtg = Wdpt.Children_assignment.gtg forest st in
             Domination_width.domination_level gtg = eager_level gtg)
           (subtrees forest))

(* Families straight from random generalised t-graphs over one shared
   X: a common base plus random extra edges (self-loops included), so
   cores collapse, members of ctw > 1 occur and members dominate each
   other. *)
let lazy_equals_eager_families =
  qcheck ~count:300 "lazy level = eager level on random GtG-like families"
    (QCheck.make ~print:string_of_int Testutil.seed_gen)
    (fun seed ->
      let x = Rdf.Variable.Set.singleton (Rdf.Variable.of_string "v0") in
      let state = Random.State.make [| seed; 5 |] in
      let var () =
        Rdf.Term.var (Printf.sprintf "v%d" (Random.State.int state 6))
      in
      let edges n =
        List.init n (fun _ ->
            let a = var () in
            let b = if Random.State.int state 6 = 0 then a else var () in
            Rdf.Triple.make a (Rdf.Term.iri "q0") b)
      in
      let base =
        Rdf.Triple.make (Rdf.Term.var "v0") (Rdf.Term.iri "q0")
          (Rdf.Term.var "v1")
        :: edges (Random.State.int state 4)
      in
      let family =
        List.init
          (2 + Random.State.int state 4)
          (fun _ ->
            Tgraphs.Gtgraph.make
              (Tgraphs.Tgraph.of_triples
                 (base @ edges (2 + Random.State.int state 6)))
              x)
      in
      Domination_width.domination_level family = eager_level family)

(* The last rule of the lazy level: [wide] has tw 2 but its triangle
   folds onto the loop, so ctw 1; it maps into [cyclic], whose
   X-anchored directed 3-cycle is a core of tw 2. [cyclic] comes first,
   so level 1 needs [wide]'s core before [wide] is visited. *)
let test_dominator_needs_its_core () =
  let t a b =
    Rdf.Triple.make (Rdf.Term.var a) (Rdf.Term.iri "q0") (Rdf.Term.var b)
  in
  let x = Rdf.Variable.Set.singleton (Rdf.Variable.of_string "v0") in
  let wide =
    [ t "v0" "v1"; t "v2" "v3"; t "v3" "v4"; t "v4" "v2"; t "v4" "v4" ]
  in
  let cyclic = wide @ [ t "v0" "a"; t "a" "b"; t "b" "c"; t "c" "a" ] in
  let family =
    List.map (fun ts -> Tgraphs.Gtgraph.make (Tgraphs.Tgraph.of_triples ts) x)
      [ cyclic; wide ]
  in
  check Alcotest.(list int) "ctws" [ 2; 1 ] (List.map Tgraphs.Cores.ctw family);
  check Alcotest.(list int) "tws" [ 2; 2 ]
    (List.map (fun g -> Tgraphs.Gtgraph.tw g) family);
  check Alcotest.int "eager level" 1 (eager_level family);
  check Alcotest.int "lazy level" 1 (Domination_width.domination_level family);
  check Alcotest.bool "dominated at 1" true
    (Domination_width.dominated_at family 1)

let test_at_most_matches_of_forest () =
  let forests =
    [
      Query_families.f_k 3;
      Query_families.f_k 5;
      [ Query_families.clique_child 3 ];
      [ Query_families.clique_child 4 ];
      [ Query_families.clique_child 5 ];
      [ Query_families.t_prime_k 4 ];
      [ Query_families.grid_query ~rows:2 ~cols:3 ];
      [ Query_families.comb_query 3 ];
    ]
    @ List.map
        (fun seed ->
          Wdpt.Pattern_forest.of_algebra
            (Testutil.wd_pattern_of_seed ~triples:7 ~vars:5 seed))
        [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  List.iter
    (fun forest ->
      let dw = Domination_width.of_forest forest in
      List.iter
        (fun k ->
          check Alcotest.bool
            (Printf.sprintf "at_most %d = (dw %d <= %d)" k dw k)
            (dw <= k)
            (Domination_width.at_most forest k))
        [ 1; 2; 3; 4 ])
    forests

(* S_∆ composed the old way: each renamed child label built as a t-graph
   of its own and unioned into pat(T) one at a time. *)
let s_delta_by_unions forest subtree delta =
  let pat = Wdpt.Subtree.pat subtree in
  let x = Tgraphs.Tgraph.vars pat in
  let avoid = ref (Wdpt.Pattern_forest.vars forest) in
  let parts =
    List.map
      (fun (i, child) ->
        let renamed, _ =
          Tgraphs.Tgraph.rename_avoiding ~keep:x ~avoid:!avoid
            (Wdpt.Pattern_tree.pat (List.nth forest i) child)
        in
        avoid := Rdf.Variable.Set.union !avoid (Tgraphs.Tgraph.vars renamed);
        renamed)
      delta
  in
  Tgraphs.Gtgraph.make (List.fold_left Tgraphs.Tgraph.union pat parts) x

(* T2's families: the lazy level reports the same profile rows — exact
   per-member ctws and per-subtree levels — as the eager computation.
   On the frontier forests, GtG and every S_∆ equal the old composition
   by unions. *)
let test_profile_rows_unchanged () =
  let families =
    [
      [ Query_families.path_query 6 ];
      [ Query_families.star_query 6 ];
      [ Query_families.comb_query 4 ];
    ]
    @ List.map (fun k -> [ Query_families.t_prime_k k ]) [ 2; 3; 4; 5; 6 ]
    @ List.map Query_families.f_k [ 2; 3; 4; 5; 6 ]
    @ List.map (fun k -> [ Query_families.clique_child k ]) [ 2; 3; 4; 5 ]
    @ List.map
        (fun (rows, cols) -> [ Query_families.grid_query ~rows ~cols ])
        [ (2, 2); (2, 4); (3, 3) ]
  in
  List.iter
    (fun forest ->
      List.iter2
        (fun row st ->
          let gtg = Wdpt.Children_assignment.gtg forest st in
          check Alcotest.(list int) "exact member ctws"
            (List.map Tgraphs.Cores.ctw gtg)
            row.Domination_width.gtg_ctws;
          check Alcotest.int "level" (eager_level gtg)
            row.Domination_width.level)
        (Domination_width.profile forest)
        (subtrees forest))
    families;
  let frontier =
    List.map Query_families.f_k [ 4; 6; 8; 10 ]
    @ List.map
        (fun t -> [ t ])
        (List.map Query_families.clique_child [ 3; 4; 5 ]
        @ List.map Query_families.comb_query [ 3; 4 ]
        @ List.map Query_families.path_query [ 4; 5; 6 ]
        @ List.map Query_families.star_query [ 4; 5; 6 ])
  in
  List.iter
    (fun forest ->
      List.iter
        (fun st ->
          let by_unions = s_delta_by_unions forest st in
          check Alcotest.bool "GtG = the composition by unions" true
            (List.equal Tgraphs.Gtgraph.equal
               (Wdpt.Children_assignment.gtg forest st)
               (List.map by_unions (Wdpt.Children_assignment.valid forest st)));
          List.iter
            (fun delta ->
              check Alcotest.bool "S_∆ = the composition by unions" true
                (Tgraphs.Gtgraph.equal
                   (Wdpt.Children_assignment.s_delta forest st delta)
                   (by_unions delta)))
            (Wdpt.Children_assignment.all forest st))
        (subtrees forest))
    frontier

(* Definition-2 dw through the GtG scan, whatever the forest's shape:
   [of_forest] returns bw on one tree, so Proposition 5 is checked
   against the per-subtree levels of [profile] instead. *)
let gtg_dw forest =
  List.fold_left
    (fun acc row -> max acc row.Domination_width.level)
    1
    (Domination_width.profile forest)

(* Proposition 5: dw = bw on UNION-free patterns. *)
let prop5 =
  qcheck ~count:60 "Prop 5: dw = bw for UNION-free patterns"
    Testutil.union_free_wd_pattern (fun p ->
      match Wdpt.Pattern_forest.of_algebra p with
      | [ tree ] -> gtg_dw [ tree ] = Branch_treewidth.of_tree tree
      | _ -> false)

(* The one-tree dispatch of [of_forest] and [at_most] agrees with the
   GtG scan on the paper's families and the one-tree frontier shapes. *)
let test_one_tree_is_gtg_level () =
  let trees =
    List.map Query_families.path_query [ 4; 5; 6 ]
    @ List.map Query_families.star_query [ 4; 5; 6 ]
    @ List.map Query_families.comb_query [ 3; 4 ]
    @ List.map Query_families.clique_child [ 2; 3; 4; 5 ]
    @ List.map Query_families.t_prime_k [ 2; 3; 4; 5 ]
  in
  List.iter
    (fun tree ->
      let dw = gtg_dw [ tree ] in
      check Alcotest.int "of_forest = GtG level" dw
        (Domination_width.of_forest [ tree ]);
      check Alcotest.bool "at_most dw" true (Domination_width.at_most [ tree ] dw);
      if dw > 1 then
        check Alcotest.bool "not at_most (dw - 1)" false
          (Domination_width.at_most [ tree ] (dw - 1)))
    trees

(* Local tractability implies bounded domination width (discussion after
   Theorem 1): dw <= lt always. *)
let lt_bounds_dw =
  qcheck ~count:60 "dw <= local-tractability width"
    Testutil.wd_pattern (fun p ->
      let forest = Wdpt.Pattern_forest.of_algebra p in
      Domination_width.of_forest forest
      <= Local_tractability.width_of_forest forest)

(* ------------------------------------------------------------------ *)
(* Evaluators: Theorem 1                                               *)
(* ------------------------------------------------------------------ *)

let test_pebble_eval_validation () =
  Alcotest.check_raises "k >= 1"
    (Invalid_argument "Pebble_eval.check: k must be at least 1") (fun () ->
      ignore
        (Pebble_eval.check ~k:0
           (Query_families.f_k 2)
           Rdf.Graph.empty Sparql.Mapping.empty))

let test_f_k_evaluators_agree () =
  let forest = Query_families.f_k 4 in
  List.iter
    (fun seed ->
      let g, mu = Graph_families.tournament_instance ~seed ~n:16 in
      check Alcotest.bool "tournament agreement" (Wdpt.Semantics.check forest g mu)
        (Pebble_eval.check ~k:1 forest g mu);
      let g, mu = Graph_families.planted_instance ~seed ~n:16 ~k:4 in
      check Alcotest.bool "planted agreement" (Wdpt.Semantics.check forest g mu)
        (Pebble_eval.check ~k:1 forest g mu))
    [ 1; 2; 3; 4; 5 ]

let test_frontier_disagreement () =
  (* clique_child 3 has dw = 2 > 1: on the fooling instance the 2-pebble
     algorithm is incomplete, and becomes exact at k = dw *)
  let forest = [ Query_families.clique_child 3 ] in
  let g, mu = Graph_families.cyclic_triangles_instance ~m:3 in
  check Alcotest.bool "naive accepts" true (Wdpt.Semantics.check forest g mu);
  check Alcotest.bool "2 pebbles incomplete" false (Pebble_eval.check ~k:1 forest g mu);
  check Alcotest.bool "3 pebbles exact" true (Pebble_eval.check ~k:2 forest g mu);
  check Alcotest.bool "check_auto picks the right k" true
    (Pebble_eval.check_auto forest g mu)

let evaluators_agree_on_random =
  qcheck ~count:50 "algebra = naive = pebble(dw) on random instances"
    (QCheck.make QCheck.Gen.(int_bound 100000))
    (fun seed ->
      let p = Testutil.wd_pattern_of_seed ~triples:5 seed in
      let forest = Wdpt.Pattern_forest.of_algebra p in
      let g = Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:10 (seed + 13) in
      let dw = Domination_width.of_forest forest in
      List.for_all
        (fun i ->
          let mu = Testutil.mapping_for p g (seed + i) in
          let reference = Sparql.Eval.check p g mu in
          Wdpt.Semantics.check forest g mu = reference
          && Pebble_eval.check ~k:dw forest g mu = reference)
        [ 1; 2; 3 ])

(* The td-guided evaluator's inner test is exact, so it must equal the
   naive evaluator on every instance. *)
let td_eval_equals_naive =
  qcheck ~count:50 "td-guided evaluator = naive evaluator"
    (QCheck.make QCheck.Gen.(int_bound 100000))
    (fun seed ->
      let p = Testutil.wd_pattern_of_seed ~triples:5 seed in
      let forest = Wdpt.Pattern_forest.of_algebra p in
      let g = Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:10 (seed + 23) in
      List.for_all
        (fun i ->
          let mu = Testutil.mapping_for p g (seed + i) in
          Td_eval.check forest g mu = Wdpt.Semantics.check forest g mu)
        [ 1; 2; 3 ])

let test_td_eval_families () =
  let forest = Query_families.f_k 3 in
  List.iter
    (fun seed ->
      let g, mu = Graph_families.tournament_instance ~seed ~n:10 in
      check Alcotest.bool "F_3 agreement" (Wdpt.Semantics.check forest g mu)
        (Td_eval.check forest g mu))
    [ 1; 2; 3 ];
  (* td is exact even where pebble(2) is fooled *)
  let cc3 = [ Query_families.clique_child 3 ] in
  let g, mu = Graph_families.cyclic_triangles_instance ~m:3 in
  check Alcotest.bool "exact on the fooling instance" true (Td_eval.check cc3 g mu)

(* Soundness of the pebble algorithm holds for ANY k (Theorem 1's proof):
   accepting implies true membership. *)
let pebble_soundness_any_k =
  qcheck ~count:50 "pebble eval is sound even below the dw bound"
    (QCheck.make QCheck.Gen.(int_bound 100000))
    (fun seed ->
      let p = Testutil.wd_pattern_of_seed ~triples:5 seed in
      let forest = Wdpt.Pattern_forest.of_algebra p in
      let g = Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:10 (seed + 17) in
      List.for_all
        (fun i ->
          let mu = Testutil.mapping_for p g (seed + i) in
          (not (Pebble_eval.check ~k:1 forest g mu)) || Wdpt.Semantics.check forest g mu)
        [ 1; 2; 3 ])

let test_pebble_solutions () =
  let forest = Query_families.f_k 2 in
  let g, _ = Graph_families.planted_instance ~seed:3 ~n:8 ~k:2 in
  let expected = Wdpt.Semantics.solutions forest g in
  let got = Pebble_eval.solutions ~k:1 forest g in
  check Testutil.mapping_set "solution sets agree" expected got

(* ------------------------------------------------------------------ *)
(* Classify                                                            *)
(* ------------------------------------------------------------------ *)

let test_classify () =
  let c = Classify.classify (Wdpt.Pattern_forest.to_algebra (Query_families.f_k 4)) in
  check Alcotest.bool "wd" true c.Classify.well_designed;
  check Alcotest.bool "not union free" false c.Classify.union_free;
  check Alcotest.int "trees" 3 c.Classify.trees;
  check Alcotest.(option int) "dw" (Some 1) c.Classify.domination_width;
  check Alcotest.(option int) "bw only for union-free" None c.Classify.branch_treewidth;
  check Alcotest.(option int) "lt" (Some 3) c.Classify.local_width;
  (match c.Classify.regime with
  | Classify.Ptime 1 -> ()
  | _ -> Alcotest.fail "expected Ptime 1");
  let c2 =
    Classify.classify
      (Wdpt.Pattern_tree.to_algebra (Query_families.clique_child 6))
  in
  (match c2.Classify.regime with
  | Classify.Intractable_frontier 5 -> ()
  | _ -> Alcotest.fail "expected frontier at dw = 5");
  check Alcotest.(option int) "bw present" (Some 5) c2.Classify.branch_treewidth;
  let c3 =
    Classify.classify
      (parse
         "{ { ?x p:p ?y . OPTIONAL { ?z p:q ?x } } OPTIONAL { ?y p:r ?z . ?z p:r ?o } }")
  in
  check Alcotest.bool "not wd" false c3.Classify.well_designed;
  (match c3.Classify.regime with
  | Classify.Not_well_designed -> ()
  | _ -> Alcotest.fail "expected Not_well_designed")

let () =
  Alcotest.run "wd_core"
    [
      ( "branch treewidth",
        [
          Alcotest.test_case "families" `Quick test_bw_families;
          Alcotest.test_case "root rejected" `Quick test_bw_root_rejected;
          Alcotest.test_case "of_pattern" `Quick test_bw_of_pattern;
        ] );
      ( "local tractability",
        [ Alcotest.test_case "families" `Quick test_local_tractability ] );
      ( "domination width",
        [
          Alcotest.test_case "paper example 5" `Quick test_example5;
          Alcotest.test_case "families" `Quick test_dw_families;
          Alcotest.test_case "empty family" `Quick test_domination_level;
          Alcotest.test_case "profile" `Quick test_profile;
          lazy_equals_eager_forests;
          lazy_equals_eager_families;
          Alcotest.test_case "dominator needs its core" `Quick
            test_dominator_needs_its_core;
          Alcotest.test_case "at_most = (dw <= k), k in 1..4" `Quick
            test_at_most_matches_of_forest;
          Alcotest.test_case "profile rows = eager on T2 families" `Quick
            test_profile_rows_unchanged;
          prop5;
          Alcotest.test_case "one tree: of_forest = GtG level" `Quick
            test_one_tree_is_gtg_level;
          lt_bounds_dw;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "validation" `Quick test_pebble_eval_validation;
          Alcotest.test_case "F_4 agreement" `Quick test_f_k_evaluators_agree;
          Alcotest.test_case "frontier disagreement" `Quick test_frontier_disagreement;
          Alcotest.test_case "pebble solutions" `Quick test_pebble_solutions;
          Alcotest.test_case "td-eval families" `Quick test_td_eval_families;
          evaluators_agree_on_random;
          pebble_soundness_any_k;
          td_eval_equals_naive;
        ] );
      ("classify", [ Alcotest.test_case "classify" `Quick test_classify ]);
    ]
