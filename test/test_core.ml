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

(* Proposition 5: dw = bw on UNION-free patterns. *)
let prop5 =
  qcheck ~count:60 "Prop 5: dw = bw for UNION-free patterns"
    Testutil.union_free_wd_pattern (fun p ->
      match Wdpt.Pattern_forest.of_algebra p with
      | [ tree ] ->
          Domination_width.of_forest [ tree ] = Branch_treewidth.of_tree tree
      | _ -> false)

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
          prop5;
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
