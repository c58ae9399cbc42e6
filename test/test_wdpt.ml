open Rdf
open Tgraphs
open Wdpt

let check = Alcotest.check

let qcheck ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let v = Term.var
let iri = Term.iri
let t s p o = Triple.make s p o
let tg = Tgraph.of_triples
let vs names = Variable.Set.of_list (List.map Variable.of_string names)
let parse = Sparql.Parser.parse_exn

(* ------------------------------------------------------------------ *)
(* Pattern_tree construction and validation                            *)
(* ------------------------------------------------------------------ *)

let chain_tree () =
  (* root (x,p,y); child (y,q,z); grandchild (z,q,w) *)
  Pattern_tree.make
    ~labels:
      [|
        tg [ t (v "x") (iri "p:p") (v "y") ];
        tg [ t (v "y") (iri "p:q") (v "z") ];
        tg [ t (v "z") (iri "p:q") (v "w") ];
      |]
    ~parent:[| -1; 0; 1 |]

let test_make_validations () =
  Alcotest.check_raises "empty label"
    (Invalid_argument "Pattern_tree.make: node 1 has empty label") (fun () ->
      ignore
        (Pattern_tree.make
           ~labels:[| tg [ t (v "x") (iri "p:p") (v "y") ]; Tgraph.empty |]
           ~parent:[| -1; 0 |]));
  Alcotest.check_raises "non-topological parent"
    (Invalid_argument "Pattern_tree.make: parents must precede children (topological ids)")
    (fun () ->
      ignore
        (Pattern_tree.make
           ~labels:
             [|
               tg [ t (v "x") (iri "p:p") (v "y") ];
               tg [ t (v "y") (iri "p:q") (v "z") ];
             |]
           ~parent:[| -1; 1 |]));
  (* variable ?x in root and grandchild but not child: disconnected *)
  Alcotest.check_raises "variable connectivity"
    (Invalid_argument "Pattern_tree.make: variable occurrences are not connected")
    (fun () ->
      ignore
        (Pattern_tree.make
           ~labels:
             [|
               tg [ t (v "x") (iri "p:p") (v "y") ];
               tg [ t (v "y") (iri "p:q") (v "z") ];
               tg [ t (v "z") (iri "p:q") (v "x") ];
             |]
           ~parent:[| -1; 0; 1 |]))

let test_accessors () =
  let tree = chain_tree () in
  check Alcotest.int "size" 3 (Pattern_tree.size tree);
  check Alcotest.(list int) "children of root" [ 1 ] (Pattern_tree.children tree 0);
  check Alcotest.(option int) "parent" (Some 1) (Pattern_tree.parent tree 2);
  check Alcotest.(option int) "root parent" None (Pattern_tree.parent tree 0);
  check Alcotest.(list int) "branch of grandchild" [ 0; 1 ] (Pattern_tree.branch tree 2);
  check Alcotest.(list int) "branch of root" [] (Pattern_tree.branch tree 0);
  check Alcotest.int "depth (edges on longest path)" 2 (Pattern_tree.depth tree);
  check Alcotest.int "total vars" 4 (Variable.Set.cardinal (Pattern_tree.vars tree));
  check Alcotest.int "pat size" 3 (Tgraph.cardinal (Pattern_tree.pat_all tree))

let test_nr_normal_form () =
  (* child 1 introduces no new variable: must be merged away, its label
     pushed into its child *)
  let tree =
    Pattern_tree.make
      ~labels:
        [|
          tg [ t (v "x") (iri "p:p") (v "y") ];
          tg [ t (v "y") (iri "p:q") (v "x") ];
          tg [ t (v "y") (iri "p:q") (v "z") ];
        |]
      ~parent:[| -1; 0; 1 |]
  in
  check Alcotest.bool "not NR" false (Pattern_tree.is_nr_normal_form tree);
  let nf = Pattern_tree.nr_normal_form tree in
  check Alcotest.bool "NR after" true (Pattern_tree.is_nr_normal_form nf);
  check Alcotest.int "node merged away" 2 (Pattern_tree.size nf);
  (* the ex-child of the merged node now carries both labels *)
  check Alcotest.int "label pushed down" 2 (Tgraph.cardinal (Pattern_tree.pat nf 1));
  (* semantics preserved *)
  let g = Generator.random_graph ~seed:5 ~n:5 ~predicates:[ "p"; "q" ] ~m:15 in
  check Testutil.mapping_set "same solutions"
    (Semantics.solutions_tree tree g)
    (Semantics.solutions_tree nf g)

let nr_preserves_semantics =
  qcheck ~count:60 "NR normal form preserves solutions"
    (QCheck.make QCheck.Gen.(int_bound 100000))
    (fun seed ->
      let p = Testutil.wd_pattern_of_seed ~union:1 ~triples:5 seed in
      match Pattern_forest.of_algebra p with
      | [ tree ] ->
          let g = Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:10 (seed + 1) in
          Pattern_tree.is_nr_normal_form tree
          && Sparql.Mapping.Set.equal
               (Semantics.solutions_tree tree g)
               (Sparql.Eval.eval p g)
      | _ -> false)

let test_to_algebra_roundtrip () =
  let f2 = Workload.Query_families.f_k 2 in
  List.iter
    (fun tree ->
      let back = Translate.tree_of_algebra (Pattern_tree.to_algebra tree) in
      check Alcotest.bool "tree -> algebra -> tree" true
        (Pattern_tree.equal tree back))
    f2

let test_rename () =
  let tree = chain_tree () in
  let renamed =
    Pattern_tree.rename
      (fun var -> Variable.of_string (Variable.to_string var ^ "_r"))
      tree
  in
  check Alcotest.bool "x_r present" true
    (Variable.Set.mem (Variable.of_string "x_r") (Pattern_tree.vars renamed));
  check Alcotest.bool "x gone" false
    (Variable.Set.mem (Variable.of_string "x") (Pattern_tree.vars renamed))

(* ------------------------------------------------------------------ *)
(* Translation (Example 2 of the paper)                                *)
(* ------------------------------------------------------------------ *)

let test_example2 () =
  (* P = P1 UNION ((?x,p,?y) OPT ((?z,q,?x) AND (?w,q,?z))), where P1 is
     Example 1's pattern with K_2(o1,o2) = {(o1,r,o2)} as second OPT arm.
     wdpf(P) = {T1, T2} matching Figure 2 at k = 2. *)
  let p =
    parse
      "{ { ?x p:p ?y . OPTIONAL { ?z p:q ?x } } OPTIONAL { ?y p:r ?o1 . ?o1 p:r ?o2 } } \
       UNION { ?x p:p ?y . OPTIONAL { ?z p:q ?x . ?w p:q ?z } }"
  in
  let forest = Pattern_forest.of_algebra p in
  check Alcotest.int "two trees" 2 (List.length forest);
  match forest with
  | [ t1; t2 ] ->
      (* T1: root {(x,p,y)} with children {(z,q,x)} and {(y,r,o1),(o1,r,o2)} *)
      check Alcotest.int "T1 size" 3 (Pattern_tree.size t1);
      check Alcotest.(list int) "T1 root children" [ 1; 2 ] (Pattern_tree.children t1 0);
      check Testutil.tgraph "T1 root" (tg [ t (v "x") (iri "p:p") (v "y") ])
        (Pattern_tree.pat t1 0);
      check Testutil.tgraph "T1 n11" (tg [ t (v "z") (iri "p:q") (v "x") ])
        (Pattern_tree.pat t1 1);
      check Testutil.tgraph "T1 n12"
        (tg [ t (v "y") (iri "p:r") (v "o1"); t (v "o1") (iri "p:r") (v "o2") ])
        (Pattern_tree.pat t1 2);
      (* T2: root {(x,p,y)} with child {(z,q,x),(w,q,z)} *)
      check Alcotest.int "T2 size" 2 (Pattern_tree.size t2);
      check Testutil.tgraph "T2 child"
        (tg [ t (v "z") (iri "p:q") (v "x"); t (v "w") (iri "p:q") (v "z") ])
        (Pattern_tree.pat t2 1)
  | _ -> Alcotest.fail "expected two trees"

let test_translate_rejects_non_wd () =
  let p2 =
    parse
      "{ { ?x p:p ?y . OPTIONAL { ?z p:q ?x } } OPTIONAL { ?y p:r ?z . ?z p:r ?o2 } }"
  in
  (match Translate.tree_of_algebra p2 with
  | exception Translate.Not_well_designed _ -> ()
  | _ -> Alcotest.fail "expected Not_well_designed");
  let u = parse "{ ?x p:p ?y } UNION { ?x p:q ?y }" in
  match Translate.tree_of_algebra u with
  | exception Translate.Not_well_designed _ -> ()
  | _ -> Alcotest.fail "tree_of_algebra must reject UNION"

let translation_preserves_semantics =
  qcheck ~count:60 "wdpf translation preserves semantics (Lemma 1)"
    (QCheck.make QCheck.Gen.(int_bound 100000))
    (fun seed ->
      let p = Testutil.wd_pattern_of_seed seed in
      let forest = Pattern_forest.of_algebra p in
      let g = Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:10 (seed + 5) in
      Sparql.Mapping.Set.equal (Semantics.solutions forest g) (Sparql.Eval.eval p g))

(* ------------------------------------------------------------------ *)
(* Subtrees                                                            *)
(* ------------------------------------------------------------------ *)

let test_subtree_enumeration () =
  let star =
    Pattern_tree.make
      ~labels:
        [|
          tg [ t (v "x") (iri "p:c") (v "y0") ];
          tg [ t (v "x") (iri "p:c") (v "y1") ];
          tg [ t (v "x") (iri "p:c") (v "y2") ];
        |]
      ~parent:[| -1; 0; 0 |]
  in
  check Alcotest.int "star subtrees: 2^2" 4 (List.length (Subtree.all star));
  let chain = chain_tree () in
  check Alcotest.int "chain subtrees: prefixes" 3 (List.length (Subtree.all chain));
  let sub = Subtree.of_nodes chain [ 0; 1 ] in
  check Alcotest.(list int) "children" [ 2 ] (Subtree.children sub);
  check Alcotest.int "pat union" 2 (Tgraph.cardinal (Subtree.pat sub));
  Alcotest.check_raises "must contain root"
    (Invalid_argument "Subtree.of_nodes: must contain the root") (fun () ->
      ignore (Subtree.of_nodes chain [ 1 ]));
  Alcotest.check_raises "parent-closed"
    (Invalid_argument "Subtree.of_nodes: not closed under parents") (fun () ->
      ignore (Subtree.of_nodes chain [ 0; 2 ]))

let test_subtree_with_vars () =
  let chain = chain_tree () in
  (match Subtree.with_vars chain (vs [ "x"; "y"; "z" ]) with
  | Some sub -> check Alcotest.(list int) "prefix found" [ 0; 1 ] (Subtree.members sub)
  | None -> Alcotest.fail "expected subtree");
  check Alcotest.bool "no subtree for partial vars" true
    (Subtree.with_vars chain (vs [ "x" ]) = None);
  check Alcotest.bool "no subtree for unrelated vars" true
    (Subtree.with_vars chain (vs [ "x"; "y"; "qq" ]) = None)

let test_subtree_matching () =
  let chain = chain_tree () in
  let g =
    Graph.of_triples
      [
        t (iri "n:a") (iri "p:p") (iri "n:b");
        t (iri "n:b") (iri "p:q") (iri "n:c");
      ]
  in
  let mu =
    Sparql.Mapping.of_list
      [
        (Variable.of_string "x", Iri.of_string "n:a");
        (Variable.of_string "y", Iri.of_string "n:b");
        (Variable.of_string "z", Iri.of_string "n:c");
      ]
  in
  (match Subtree.matching chain g mu with
  | Some sub -> check Alcotest.(list int) "matched prefix" [ 0; 1 ] (Subtree.members sub)
  | None -> Alcotest.fail "expected match");
  (* µ mapping z where the triple is absent: no subtree with exactly dom(µ) *)
  let mu_bad =
    Sparql.Mapping.of_list
      [
        (Variable.of_string "x", Iri.of_string "n:a");
        (Variable.of_string "y", Iri.of_string "n:b");
        (Variable.of_string "z", Iri.of_string "n:a");
      ]
  in
  check Alcotest.bool "no match" true (Subtree.matching chain g mu_bad = None)

(* ------------------------------------------------------------------ *)
(* Children assignments and GtG (Example 4 of the paper)               *)
(* ------------------------------------------------------------------ *)

let test_example4 () =
  let k = 3 in
  let forest = Workload.Query_families.f_k k in
  let t1 = List.nth forest 0 in
  let t1_r1 = Subtree.root_only t1 in
  (* supp(T1[r1]) = {T1, T2} *)
  check Alcotest.(list int) "supp of T1[r1]" [ 0; 1 ]
    (List.map fst (Children_assignment.supp forest t1_r1));
  (* GtG(T1[r1]) = {S_∆1, S_∆2}: both trees must be assigned *)
  let gtg = Children_assignment.gtg forest t1_r1 in
  check Alcotest.int "two valid assignments" 2 (List.length gtg);
  (* CA(T1[r1]): (2 children + skip) × (1 child + skip) − empty = 5 *)
  check Alcotest.int "all CA" 5
    (List.length (Children_assignment.all forest t1_r1));
  (* ∆3 = {T1 -> n11} alone is invalid: T2's witness maps into S_∆3 *)
  let delta3 = [ (0, 1) ] in
  check Alcotest.bool "partial assignment invalid" false
    (Children_assignment.is_valid forest t1_r1 delta3);
  (* ctws are {1, k-1} as computed in Example 5 *)
  let ctws = List.sort compare (List.map Cores.ctw gtg) in
  check Alcotest.(list int) "ctws" [ 1; k - 1 ] ctws;
  (* T1[r1, n11]: unique valid assignment; its S_∆ is (S', X) of Fig. 1 *)
  let t1_r1_n11 = Subtree.of_nodes t1 [ 0; 1 ] in
  check Alcotest.(list int) "supp includes T3" [ 0; 2 ]
    (List.map fst (Children_assignment.supp forest t1_r1_n11));
  let gtg2 = Children_assignment.gtg forest t1_r1_n11 in
  check Alcotest.int "singleton GtG" 1 (List.length gtg2);
  check Alcotest.int "ctw(S_∆) = 1" 1 (Cores.ctw (List.hd gtg2));
  (* T1[r1, n12] *)
  let t1_r1_n12 = Subtree.of_nodes t1 [ 0; 2 ] in
  let gtg3 = Children_assignment.gtg forest t1_r1_n12 in
  check Alcotest.int "singleton GtG" 1 (List.length gtg3);
  check Alcotest.int "ctw = 1" 1 (Cores.ctw (List.hd gtg3));
  (* full T1 has no children: GtG empty *)
  let full = Subtree.full t1 in
  check Alcotest.int "no children assignments" 0
    (List.length (Children_assignment.gtg forest full))

let test_s_delta_renaming () =
  (* in S_∆1 of Example 4, T1's child ?z and T2's child ?z must end up
     distinct: one of them is renamed *)
  let forest = Workload.Query_families.f_k 2 in
  let t1 = List.nth forest 0 in
  let t1_r1 = Subtree.root_only t1 in
  let delta = [ (0, 1); (1, 1) ] in
  let s_delta = Children_assignment.s_delta forest t1_r1 delta in
  (* pat(T) has 1 triple; n11 has 1; n2 has 2: with shared ?z they would
     collapse to fewer than 4 triples *)
  check Alcotest.int "no accidental capture" 4
    (Tgraph.cardinal (Gtgraph.s s_delta));
  check Alcotest.bool "X = {x,y}" true
    (Variable.Set.equal (Gtgraph.x s_delta) (vs [ "x"; "y" ]))

(* Validity is decided by a subset test on triple sets; the definition
   asks for a homomorphism of generalised t-graphs from each unassigned
   witness into (S_∆, vars T). Both, on every assignment of every
   subtree of random forests. *)
let validity_is_the_homomorphism_test =
  qcheck ~count:100 "valid = no unassigned witness maps into S_∆"
    (QCheck.make ~print:string_of_int Testutil.seed_gen) (fun seed ->
      let forest =
        Pattern_forest.of_algebra
          (Testutil.wd_pattern_of_seed ~triples:7 ~vars:5
             ~union:(1 + (seed mod 3)) ~depth:3 seed)
      in
      List.for_all
        (fun tree ->
          List.for_all
            (fun st ->
              let x = Subtree.vars st in
              let support = Children_assignment.supp forest st in
              let by_definition delta =
                let s_d = Children_assignment.s_delta forest st delta in
                List.for_all
                  (fun (j, w) ->
                    List.mem_assoc j delta
                    || not (Gtgraph.maps_to (Gtgraph.make (Subtree.pat w) x) s_d))
                  support
              in
              Children_assignment.valid forest st
              = List.filter by_definition (Children_assignment.all forest st))
            (Subtree.all tree))
        forest)

(* ------------------------------------------------------------------ *)
(* Semantics: Lemma 1 characterisation                                 *)
(* ------------------------------------------------------------------ *)

let check_agrees_with_solutions =
  qcheck ~count:60 "check agrees with solution enumeration"
    (QCheck.make QCheck.Gen.(int_bound 100000))
    (fun seed ->
      let p = Testutil.wd_pattern_of_seed seed in
      let forest = Pattern_forest.of_algebra p in
      let g = Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:10 (seed + 9) in
      let sols = Semantics.solutions forest g in
      (* every enumerated solution passes check *)
      Sparql.Mapping.Set.for_all (fun mu -> Semantics.check forest g mu) sols
      (* and random candidate mappings agree with membership *)
      && List.for_all
           (fun i ->
             let mu = Testutil.mapping_for p g (seed + i) in
             Semantics.check forest g mu = Sparql.Mapping.Set.mem mu sols)
           [ 1; 2; 3; 4; 5 ])

let () =
  Alcotest.run "wdpt"
    [
      ( "pattern tree",
        [
          Alcotest.test_case "validations" `Quick test_make_validations;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "NR normal form" `Quick test_nr_normal_form;
          nr_preserves_semantics;
          Alcotest.test_case "to_algebra roundtrip" `Quick test_to_algebra_roundtrip;
          Alcotest.test_case "rename" `Quick test_rename;
        ] );
      ( "translation",
        [
          Alcotest.test_case "paper example 2" `Quick test_example2;
          Alcotest.test_case "rejects non-wd" `Quick test_translate_rejects_non_wd;
          translation_preserves_semantics;
        ] );
      ( "subtrees",
        [
          Alcotest.test_case "enumeration" `Quick test_subtree_enumeration;
          Alcotest.test_case "with_vars" `Quick test_subtree_with_vars;
          Alcotest.test_case "matching" `Quick test_subtree_matching;
        ] );
      ( "children assignments",
        [
          Alcotest.test_case "paper example 4" `Quick test_example4;
          Alcotest.test_case "renaming in S_∆" `Quick test_s_delta_renaming;
          validity_is_the_homomorphism_test;
        ] );
      ("semantics", [ check_agrees_with_solutions ]);
    ]
