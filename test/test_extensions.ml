(* Tests for the extension layer: ablation knobs, dictionary encoding,
   OPT normal form, mapping subsumption, containment, the optimised
   enumerator, the engine facade, and the second treewidth algorithm. *)

open Rdf

let check = Alcotest.check

let qcheck ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let seed_arb = QCheck.make QCheck.Gen.(int_bound 100000)

(* ------------------------------------------------------------------ *)
(* Ablation knobs never change results                                 *)
(* ------------------------------------------------------------------ *)

let scan_equals_indexed =
  qcheck ~count:80 "matching_scan = matching" Testutil.small_graph (fun g ->
      let idx = Graph.to_index g in
      let norm l = List.sort Triple.compare l in
      let subjects = Rdf.Index.subjects idx in
      let probe ?s ?p ?o () =
        norm (Rdf.Index.matching idx ?s ?p ?o ())
        = norm (Rdf.Index.matching_scan idx ?s ?p ?o ())
      in
      probe ()
      && List.for_all (fun s -> probe ~s ()) subjects
      && List.for_all
           (fun p -> probe ~p ())
           (Rdf.Index.predicates idx))

let indexing_agrees =
  qcheck ~count:120 "hom solver: indexing does not change answers"
    seed_arb (fun seed ->
      let source = Testutil.tgraph_of_seed ~triples:3 ~vars:3 seed in
      let target =
        Graph.to_index (Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:8 (seed + 1))
      in
      let reference = Tgraphs.Homomorphism.count ~source ~target () in
      Tgraphs.Homomorphism.count ~use_index:false ~source ~target () = reference)

let pebble_pruning_agrees =
  qcheck ~count:60 "pebble game: unary pruning does not change the winner"
    seed_arb (fun seed ->
      let g = Testutil.gtgraph_of_seed ~triples:3 ~vars:3 seed in
      let graph = Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:8 (seed + 3) in
      if Iri.Set.is_empty (Graph.dom graph) then true
      else begin
        let iris = Iri.Set.elements (Graph.dom graph) in
        let state = Random.State.make [| seed; 5 |] in
        let mu =
          Variable.Set.fold
            (fun var acc ->
              Variable.Map.add var
                (Term.Iri (List.nth iris (Random.State.int state (List.length iris))))
                acc)
            (Tgraphs.Gtgraph.x g) Variable.Map.empty
        in
        Pebble.Pebble_game.wins ~k:2 g ~mu graph
        = Pebble.Pebble_game.wins ~prune_unary:false ~k:2 g ~mu graph
      end)

(* ------------------------------------------------------------------ *)
(* Dictionary                                                          *)
(* ------------------------------------------------------------------ *)

let test_dictionary () =
  let d = Dictionary.create () in
  let a = Dictionary.intern d (Term.iri "n:a") in
  let b = Dictionary.intern d (Term.iri "n:b") in
  let a' = Dictionary.intern d (Term.iri "n:a") in
  check Alcotest.int "stable ids" a a';
  check Alcotest.bool "distinct ids" true (a <> b);
  check Alcotest.int "size" 2 (Dictionary.size d);
  check Alcotest.bool "term_of inverts" true
    (Term.equal (Term.iri "n:b") (Dictionary.term_of d b));
  check Alcotest.(option int) "find hit" (Some a) (Dictionary.find d (Term.iri "n:a"));
  check Alcotest.(option int) "find miss" None (Dictionary.find d (Term.iri "n:zzz"));
  Alcotest.check_raises "unknown id" (Invalid_argument "Dictionary.term_of: unknown id")
    (fun () -> ignore (Dictionary.term_of d 99))

let dictionary_roundtrip =
  qcheck ~count:60 "graph dictionary roundtrips every triple"
    Testutil.small_graph (fun g ->
      let d = Dictionary.of_graph g in
      List.for_all
        (fun t -> Triple.equal t (Dictionary.decode_triple d (Dictionary.encode_triple d t)))
        (Graph.triples g))

(* growth beyond the initial bucket size *)
let test_dictionary_growth () =
  let d = Dictionary.create () in
  for i = 0 to 199 do
    ignore (Dictionary.intern d (Term.iri (Printf.sprintf "n:%d" i)))
  done;
  check Alcotest.int "200 terms" 200 (Dictionary.size d);
  check Alcotest.bool "early term intact" true
    (Term.equal (Term.iri "n:0") (Dictionary.term_of d 0));
  check Alcotest.bool "late term intact" true
    (Term.equal (Term.iri "n:199") (Dictionary.term_of d 199))

(* ------------------------------------------------------------------ *)
(* OPT normal form                                                     *)
(* ------------------------------------------------------------------ *)

let test_onf_shapes () =
  let parse = Sparql.Parser.parse_exn in
  let open Wdpt.Translate in
  check Alcotest.bool "triple is ONF" true (is_opt_normal_form (parse "{ ?x p:a ?y }"));
  check Alcotest.bool "pure AND is ONF" true
    (is_opt_normal_form (parse "{ ?x p:a ?y . ?y p:b ?z }"));
  check Alcotest.bool "AND above OPT is not ONF" false
    (is_opt_normal_form
       (parse "{ { ?x p:a ?y . OPTIONAL { ?y p:b ?z } } { ?x p:c ?w } }"));
  check Alcotest.bool "OPT chains are ONF" true
    (is_opt_normal_form
       (parse "{ ?x p:a ?y . OPTIONAL { ?y p:b ?z . OPTIONAL { ?z p:c ?w } } }"));
  check Alcotest.bool "UNION is never ONF" false
    (is_opt_normal_form (parse "{ ?x p:a ?y } UNION { ?x p:b ?y }"))

let onf_laws =
  qcheck ~count:80 "opt_normal_form: sound, idempotent, semantics-preserving"
    seed_arb (fun seed ->
      let p = Testutil.wd_pattern_of_seed ~union:1 ~triples:5 seed in
      let onf = Wdpt.Translate.opt_normal_form p in
      Wdpt.Translate.is_opt_normal_form onf
      && Sparql.Algebra.equal (Wdpt.Translate.opt_normal_form onf) onf
      &&
      let g = Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:10 (seed + 1) in
      Sparql.Mapping.Set.equal (Sparql.Eval.eval p g) (Sparql.Eval.eval onf g))

(* ------------------------------------------------------------------ *)
(* Mapping subsumption                                                 *)
(* ------------------------------------------------------------------ *)

let test_subsumes () =
  let m = Sparql.Mapping.of_list in
  let small = m [ (Variable.of_string "x", Iri.of_string "n:a") ] in
  let big =
    m [ (Variable.of_string "x", Iri.of_string "n:a"); (Variable.of_string "y", Iri.of_string "n:b") ]
  in
  let conflicting = m [ (Variable.of_string "x", Iri.of_string "n:z") ] in
  check Alcotest.bool "bigger subsumes smaller" true (Sparql.Mapping.subsumes big small);
  check Alcotest.bool "smaller does not subsume bigger" false
    (Sparql.Mapping.subsumes small big);
  check Alcotest.bool "reflexive" true (Sparql.Mapping.subsumes big big);
  check Alcotest.bool "conflict breaks subsumption" false
    (Sparql.Mapping.subsumes big conflicting);
  check Alcotest.bool "everything subsumes empty" true
    (Sparql.Mapping.subsumes small Sparql.Mapping.empty)

let solutions_are_maximal =
  qcheck ~count:60 "UNION-free wd solutions are pairwise ⊑-incomparable"
    seed_arb (fun seed ->
      let p = Testutil.wd_pattern_of_seed ~union:1 ~triples:5 seed in
      let g = Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:10 (seed + 7) in
      let sols = Sparql.Mapping.Set.elements (Sparql.Eval.eval p g) in
      List.for_all
        (fun mu1 ->
          List.for_all
            (fun mu2 ->
              Sparql.Mapping.equal mu1 mu2
              || not (Sparql.Mapping.subsumes mu2 mu1))
            sols)
        sols)

(* ------------------------------------------------------------------ *)
(* Containment                                                         *)
(* ------------------------------------------------------------------ *)

let v = Term.var
let iri = Term.iri
let t s p o = Triple.make s p o
let vset names = Variable.Set.of_list (List.map Variable.of_string names)

let gt triples x = Tgraphs.Gtgraph.make (Tgraphs.Tgraph.of_triples triples) (vset x)

let test_cq_containment () =
  (* q1: x has a 2-step path; q2: x has a 1-step edge. q1 ⊆ q2. *)
  let q1 =
    gt [ t (v "x") (iri "p:r") (v "a"); t (v "a") (iri "p:r") (v "b") ] [ "x" ]
  in
  let q2 = gt [ t (v "x") (iri "p:r") (v "c") ] [ "x" ] in
  check Alcotest.bool "path2 ⊆ path1" true (Wd_core.Containment.cq_contained q1 q2);
  check Alcotest.bool "path1 ⊄ path2" false (Wd_core.Containment.cq_contained q2 q1);
  check Alcotest.bool "not equivalent" false (Wd_core.Containment.cq_equivalent q1 q2);
  (* hom-equivalent pair: K2 pattern with a redundant copy *)
  let q3 =
    gt
      [ t (v "x") (iri "p:r") (v "a"); t (v "x") (iri "p:r") (v "a2") ]
      [ "x" ]
  in
  check Alcotest.bool "redundant copy is equivalent" true
    (Wd_core.Containment.cq_equivalent q2 q3)

(* Chandra–Merlin exactness, sampled: if contained, inclusion holds on
   samples; if not contained, the frozen canonical instance refutes. *)
let cq_containment_exactness =
  qcheck ~count:80 "Chandra–Merlin agrees with evaluation"
    seed_arb (fun seed ->
      let s1 = Testutil.tgraph_of_seed ~triples:3 ~vars:3 seed in
      let s2 = Testutil.tgraph_of_seed ~triples:3 ~vars:3 (seed + 1) in
      let x =
        Variable.Set.inter (Tgraphs.Tgraph.vars s1) (Tgraphs.Tgraph.vars s2)
      in
      if
        Variable.Set.is_empty (Tgraphs.Tgraph.vars s1)
        || Variable.Set.is_empty (Tgraphs.Tgraph.vars s2)
      then true
      else begin
        let q1 = Tgraphs.Gtgraph.make s1 x and q2 = Tgraphs.Gtgraph.make s2 x in
        let contained = Wd_core.Containment.cq_contained q1 q2 in
        (* evaluate both as boolean-ish queries over the frozen q1 *)
        let g = Tgraphs.Tgraph.freeze s1 in
        let mu =
          Variable.Set.fold
            (fun var acc ->
              match Tgraphs.Tgraph.freeze_term (Term.Var var) with
              | Term.Iri i -> Sparql.Mapping.add var i acc
              | Term.Var _ -> acc)
            x Sparql.Mapping.empty
        in
        let ans1 =
          Tgraphs.Gtgraph.maps_to_graph q1
            ~mu:(Sparql.Mapping.to_assignment mu) g
        in
        let ans2 =
          Tgraphs.Gtgraph.maps_to_graph q2
            ~mu:(Sparql.Mapping.to_assignment mu) g
        in
        (* canonical instance: q1 always answers its own freezing, and by
           Chandra–Merlin q2 answers it exactly when the containment holds *)
        ans1 && contained = ans2
      end)

let test_refute_opt () =
  let parse = Sparql.Parser.parse_exn in
  (* P1 returns bare ?x rows when the OPT arm misses; P2 demands the arm *)
  let p1 = parse "{ ?x p:a ?y . OPTIONAL { ?y p:b ?z } }" in
  let p2 = parse "{ ?x p:a ?y . ?y p:b ?z }" in
  (match Wd_core.Containment.refute p1 p2 with
  | Some ce ->
      check Alcotest.bool "counterexample is genuine" true
        (Sparql.Eval.check p1 ce.Wd_core.Containment.graph ce.Wd_core.Containment.mapping
        && not (Sparql.Eval.check p2 ce.Wd_core.Containment.graph ce.Wd_core.Containment.mapping))
  | None -> Alcotest.fail "expected a counterexample");
  (* a pattern is contained in itself: no counterexample *)
  check Alcotest.bool "self containment never refuted" true
    (Wd_core.Containment.refute ~attempts:50 p1 p1 = None);
  (* P2 ⊆ P1? every full match of P2 is also maximal for P1 -> contained *)
  check Alcotest.bool "AND into OPT not refuted" true
    (Wd_core.Containment.refute ~attempts:80 p2 p1 = None)

let refutations_are_sound =
  qcheck ~count:40 "refutations are always genuine counterexamples"
    seed_arb (fun seed ->
      let p1 = Testutil.wd_pattern_of_seed ~triples:4 seed in
      let p2 = Testutil.wd_pattern_of_seed ~triples:4 (seed + 1) in
      match Wd_core.Containment.refute ~attempts:30 ~seed p1 p2 with
      | None -> true
      | Some ce ->
          Sparql.Eval.check p1 ce.Wd_core.Containment.graph ce.Wd_core.Containment.mapping
          && not
               (Sparql.Eval.check p2 ce.Wd_core.Containment.graph
                  ce.Wd_core.Containment.mapping))

(* ------------------------------------------------------------------ *)
(* wdPT optimiser                                                      *)
(* ------------------------------------------------------------------ *)

let tg = Tgraphs.Tgraph.of_triples

let test_optimize_ancestor_dedup () =
  let x = Term.var "x" and y = Term.var "y" and z = Term.var "z" in
  let p = Term.iri "p:p" and q = Term.iri "p:q" in
  let tree =
    Wdpt.Pattern_tree.make
      ~labels:
        [|
          tg [ Triple.make x p y ];
          (* the child repeats the root triple *)
          tg [ Triple.make x p y; Triple.make z q x ];
        |]
      ~parent:[| -1; 0 |]
  in
  let optimised, removed = Wdpt.Optimize.tree tree in
  check Alcotest.int "one triple removed" 1 removed;
  check Alcotest.int "child label shrunk" 1
    (Tgraphs.Tgraph.cardinal (Wdpt.Pattern_tree.pat optimised 1));
  (* semantics preserved on a concrete graph *)
  let g = Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:10 3 in
  check Testutil.mapping_set "same solutions"
    (Wdpt.Semantics.solutions_tree tree g)
    (Wdpt.Semantics.solutions_tree optimised g)

let test_optimize_connectivity_guard () =
  let x = Term.var "x" and y = Term.var "y" and w = Term.var "w" in
  let p = Term.iri "p:p" and q = Term.iri "p:q" in
  (* the duplicate triple in node 1 is node 1's only occurrence of ?y,
     and the grandchild uses ?y: removing it would disconnect ?y *)
  let tree =
    Wdpt.Pattern_tree.make
      ~labels:
        [|
          tg [ Triple.make x p y ];
          tg [ Triple.make x p y; Triple.make x q (Term.var "mid") ];
          tg [ Triple.make y q w ];
        |]
      ~parent:[| -1; 0; 1 |]
  in
  let optimised, removed = Wdpt.Optimize.tree tree in
  check Alcotest.int "guarded: nothing removed" 0 removed;
  check Alcotest.bool "tree unchanged" true (Wdpt.Pattern_tree.equal tree optimised)

let test_optimize_forest_dedup () =
  let branch = "{ ?x p:a ?y . OPTIONAL { ?y p:b ?z } }" in
  let p =
    Sparql.Parser.parse_exn (Printf.sprintf "%s UNION %s" branch branch)
  in
  let forest, report = Wdpt.Optimize.pattern p in
  check Alcotest.int "duplicate tree removed" 1 report.Wdpt.Optimize.trees_removed;
  check Alcotest.int "one tree left" 1 (List.length forest)

let optimize_preserves_semantics =
  qcheck ~count:60 "optimiser preserves semantics (with injected duplicates)"
    seed_arb (fun seed ->
      let p = Testutil.wd_pattern_of_seed ~triples:5 seed in
      let forest = Wdpt.Pattern_forest.of_algebra p in
      (* inject a duplicated-parent-triple child into the first tree when
         shapes permit, then optimise and compare answers *)
      let forest =
        match forest with
        | tree :: rest ->
            let root_label = Wdpt.Pattern_tree.pat tree 0 in
            let fresh = Term.var "opt_dup_fresh" in
            let injected =
              Tgraphs.Tgraph.union root_label
                (tg [ Triple.make fresh (Term.iri "p:dup") fresh ])
            in
            let labels =
              Array.of_list
                (List.map (Wdpt.Pattern_tree.pat tree) (Wdpt.Pattern_tree.nodes tree)
                @ [ injected ])
            in
            let parent =
              Array.of_list
                (List.map
                   (fun n -> Option.value ~default:(-1) (Wdpt.Pattern_tree.parent tree n))
                   (Wdpt.Pattern_tree.nodes tree)
                @ [ 0 ])
            in
            Wdpt.Pattern_tree.make ~labels ~parent :: rest
        | [] -> forest
      in
      let optimised, _ = Wdpt.Optimize.forest forest in
      let g = Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:10 (seed + 21) in
      Sparql.Mapping.Set.equal
        (Wdpt.Semantics.solutions forest g)
        (Wdpt.Semantics.solutions optimised g))

(* ------------------------------------------------------------------ *)
(* Optimised enumerator                                                *)
(* ------------------------------------------------------------------ *)

let enumerator_agrees =
  qcheck ~count:60 "Enumerate.solutions = Semantics.solutions at k = dw"
    seed_arb (fun seed ->
      let p = Testutil.wd_pattern_of_seed ~triples:5 seed in
      let forest = Wdpt.Pattern_forest.of_algebra p in
      let g = Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:10 (seed + 11) in
      let k = Wd_core.Domination_width.of_forest forest in
      Sparql.Mapping.Set.equal
        (Wd_core.Enumerate.solutions ~maximality:(`Pebble k) forest g)
        (Wdpt.Semantics.solutions forest g))

let test_enumerator_families () =
  let forest = Workload.Query_families.f_k 3 in
  let g, _ = Workload.Graph_families.planted_instance ~seed:5 ~n:10 ~k:3 in
  check Testutil.mapping_set "F_3 planted"
    (Wdpt.Semantics.solutions forest g)
    (Wd_core.Enumerate.solutions ~maximality:(`Pebble 1) forest g);
  let social = Generator.social ~seed:4 ~people:30 in
  let p =
    Sparql.Parser.parse_exn "{ ?a p:knows ?b . OPTIONAL { ?b p:email ?m } }"
  in
  let forest = Wdpt.Pattern_forest.of_algebra p in
  check Testutil.mapping_set "social profile"
    (Wdpt.Semantics.solutions forest social)
    (Wd_core.Enumerate.solutions forest social);
  check Alcotest.int "count agrees"
    (Sparql.Mapping.Set.cardinal (Wdpt.Semantics.solutions forest social))
    (Wd_core.Enumerate.count forest social)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine () =
  let p =
    Sparql.Parser.parse_exn "{ ?a p:knows ?b . OPTIONAL { ?b p:email ?m } }"
  in
  let plan = Wd_core.Engine.plan p in
  check Alcotest.int "dw measured" 1 plan.Wd_core.Engine.domination_width;
  (match plan.Wd_core.Engine.algorithm with
  | Wd_core.Engine.Pebble 1 -> ()
  | _ -> Alcotest.fail "expected Pebble 1");
  let g = Generator.social ~seed:9 ~people:25 in
  let reference = Sparql.Eval.eval p g in
  check Testutil.mapping_set "planned solutions" reference
    (Wd_core.Engine.solutions plan g);
  check Alcotest.int "count" (Sparql.Mapping.Set.cardinal reference)
    (Wd_core.Engine.count plan g);
  let forced = Wd_core.Engine.plan ~force:Wd_core.Engine.Naive p in
  check Testutil.mapping_set "forced naive agrees" reference
    (Wd_core.Engine.solutions forced g);
  Sparql.Mapping.Set.iter
    (fun mu -> check Alcotest.bool "check" true (Wd_core.Engine.check plan g mu))
    reference

(* ------------------------------------------------------------------ *)
(* Second treewidth algorithm                                          *)
(* ------------------------------------------------------------------ *)

let bb_agrees_with_dp =
  qcheck ~count:80 "branch-and-bound treewidth = DP treewidth"
    Testutil.small_ugraph (fun g ->
      Graphtheory.Treewidth.exact_branch_and_bound g
      = Graphtheory.Treewidth.exact g)

let test_bb_known () =
  let open Graphtheory in
  check Alcotest.(option int) "K6" (Some 5)
    (Treewidth.exact_branch_and_bound (Ugraph.complete 6));
  check Alcotest.(option int) "grid 4x4" (Some 4)
    (Treewidth.exact_branch_and_bound (Ugraph.grid_graph ~rows:4 ~cols:4));
  check Alcotest.(option int) "empty" (Some (-1))
    (Treewidth.exact_branch_and_bound (Ugraph.make ~n:0 ~edges:[]));
  check Alcotest.(option int) "over limit" None
    (Treewidth.exact_branch_and_bound ~limit:3 (Ugraph.complete 5))

let () =
  Alcotest.run "extensions"
    [
      ( "ablation knobs",
        [ scan_equals_indexed; indexing_agrees; pebble_pruning_agrees ] );
      ( "dictionary",
        [
          Alcotest.test_case "basics" `Quick test_dictionary;
          Alcotest.test_case "growth" `Quick test_dictionary_growth;
          dictionary_roundtrip;
        ] );
      ( "opt normal form",
        [ Alcotest.test_case "shapes" `Quick test_onf_shapes; onf_laws ] );
      ( "subsumption",
        [
          Alcotest.test_case "order" `Quick test_subsumes;
          solutions_are_maximal;
        ] );
      ( "containment",
        [
          Alcotest.test_case "Chandra–Merlin basics" `Quick test_cq_containment;
          cq_containment_exactness;
          Alcotest.test_case "OPT refutation" `Quick test_refute_opt;
          refutations_are_sound;
        ] );
      ( "optimiser",
        [
          Alcotest.test_case "ancestor dedup" `Quick test_optimize_ancestor_dedup;
          Alcotest.test_case "connectivity guard" `Quick test_optimize_connectivity_guard;
          Alcotest.test_case "forest dedup" `Quick test_optimize_forest_dedup;
          optimize_preserves_semantics;
        ] );
      ( "enumerator",
        [
          enumerator_agrees;
          Alcotest.test_case "families" `Quick test_enumerator_families;
        ] );
      ("engine", [ Alcotest.test_case "facade" `Quick test_engine ]);
      ( "treewidth (bb)",
        [ Alcotest.test_case "known" `Quick test_bb_known; bb_agrees_with_dp ] );
    ]
