open Rdf
open Tgraphs

let check = Alcotest.check

let qcheck ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let v = Term.var
let iri = Term.iri
let t s p o = Triple.make s p o
let vs names = Variable.Set.of_list (List.map Variable.of_string names)

(* ------------------------------------------------------------------ *)
(* Tgraph                                                              *)
(* ------------------------------------------------------------------ *)

let test_tgraph_basics () =
  let s =
    Tgraph.of_triples
      [ t (v "x") (iri "p:p") (v "y"); t (v "y") (iri "p:q") (iri "c:1") ]
  in
  check Alcotest.int "cardinal" 2 (Tgraph.cardinal s);
  check Alcotest.int "vars" 2 (Variable.Set.cardinal (Tgraph.vars s));
  check Alcotest.int "iris" 3 (Iri.Set.cardinal (Tgraph.iris s));
  check Alcotest.bool "subset refl" true (Tgraph.subset s s);
  check Alcotest.bool "not proper" false (Tgraph.proper_subset s s);
  let smaller = Tgraph.remove s (t (v "x") (iri "p:p") (v "y")) in
  check Alcotest.bool "proper subset" true (Tgraph.proper_subset smaller s)

let test_rename_avoiding () =
  let s =
    Tgraph.of_triples
      [ t (v "x") (iri "p:p") (v "y"); t (v "y") (iri "p:p") (v "z") ]
  in
  let keep = vs [ "x" ] in
  let avoid = vs [ "y"; "z"; "w" ] in
  let renamed, subst = Tgraph.rename_avoiding ~keep ~avoid s in
  check Alcotest.bool "x kept" true
    (Variable.Set.mem (Variable.of_string "x") (Tgraph.vars renamed));
  check Alcotest.bool "y renamed" false
    (Variable.Set.mem (Variable.of_string "y") (Tgraph.vars renamed));
  check Alcotest.bool "fresh names avoid the avoid set" true
    (Variable.Set.for_all
       (fun fresh ->
         Variable.Set.mem fresh keep || not (Variable.Set.mem fresh avoid))
       (Tgraph.vars renamed));
  check Alcotest.int "two renamings" 2 (Variable.Map.cardinal subst)

let test_freeze_thaw () =
  let s = Tgraph.of_triples [ t (v "x") (iri "p:p") (iri "c:1") ] in
  let frozen = Tgraph.freeze s in
  check Alcotest.bool "frozen is ground" true
    (List.for_all Triple.is_ground (Graph.triples frozen));
  check Alcotest.bool "thaw inverts freeze" true
    (Term.equal (v "x") (Tgraph.thaw_term (Tgraph.freeze_term (v "x"))));
  check Alcotest.bool "thaw fixes plain iris" true
    (Term.equal (iri "c:1") (Tgraph.thaw_term (iri "c:1")))

(* ------------------------------------------------------------------ *)
(* Homomorphism                                                        *)
(* ------------------------------------------------------------------ *)

let path2 =
  Tgraph.of_triples [ t (v "a") (iri "p:r") (v "b"); t (v "b") (iri "p:r") (v "c") ]

let test_hom_basics () =
  let target = Graph.to_index (Generator.path ~n:5 ~pred:"r") in
  check Alcotest.bool "path2 -> path5" true
    (Homomorphism.exists ~source:path2 ~target ());
  check Alcotest.int "count = 3 placements" 3
    (Homomorphism.count ~source:path2 ~target ());
  let single = Graph.to_index (Generator.path ~n:2 ~pred:"r") in
  check Alcotest.bool "path2 -/-> single edge" false
    (Homomorphism.exists ~source:path2 ~target:single ())

let test_hom_identity () =
  let s = Testutil.tgraph_of_seed 42 in
  check Alcotest.bool "any t-graph maps into itself" true
    (Homomorphism.exists ~source:s ~target:s ())

let test_hom_pre () =
  let target = Graph.to_index (Generator.path ~n:5 ~pred:"r") in
  let pre v_name node =
    Variable.Map.singleton (Variable.of_string v_name) (Generator.node node)
  in
  check Alcotest.int "anchored count" 1
    (Homomorphism.count ~pre:(pre "a" 0) ~source:path2 ~target ());
  check Alcotest.bool "anchored impossible" false
    (Homomorphism.exists ~pre:(pre "a" 4) ~source:path2 ~target ());
  let bad = Variable.Map.singleton (Variable.of_string "a") (iri "c:nowhere") in
  check Alcotest.bool "dangling pre" false
    (Homomorphism.exists ~pre:bad ~source:path2 ~target ())

let test_hom_repeated_var () =
  let loop_pattern = Tgraph.of_triples [ t (v "x") (iri "p:r") (v "x") ] in
  let no_loop = Graph.to_index (Generator.cycle ~n:3 ~pred:"r") in
  check Alcotest.bool "no self loop" false
    (Homomorphism.exists ~source:loop_pattern ~target:no_loop ());
  let with_loop = Rdf.Index.of_triples [ t (iri "n:0") (iri "p:r") (iri "n:0") ] in
  check Alcotest.bool "self loop found" true
    (Homomorphism.exists ~source:loop_pattern ~target:with_loop ())

let test_hom_all_distinct () =
  let target = Graph.to_index (Generator.transitive_tournament ~n:4 ~pred:"r") in
  let tri =
    Tgraph.of_triples
      [
        t (v "a") (iri "p:r") (v "b");
        t (v "b") (iri "p:r") (v "c");
        t (v "a") (iri "p:r") (v "c");
      ]
  in
  let homs = Homomorphism.all ~source:tri ~target () in
  check Alcotest.int "4 homs" 4 (List.length homs);
  let distinct = List.sort_uniq (Variable.Map.compare Term.compare) homs in
  check Alcotest.int "no duplicates" 4 (List.length distinct);
  check Alcotest.int "limit respected" 2
    (List.length (Homomorphism.all ~limit:2 ~source:tri ~target ()))

let test_hom_empty_source () =
  let target = Graph.to_index (Generator.path ~n:3 ~pred:"r") in
  check Alcotest.int "empty source has the empty hom" 1
    (Homomorphism.count ~source:Tgraph.empty ~target ())

(* Brute-force oracle. *)
let brute_force_count source target =
  let source_vars = Variable.Set.elements (Tgraph.vars source) in
  let target_terms = Term.Set.elements (Rdf.Index.terms target) in
  let count = ref 0 in
  let rec go assignment = function
    | [] ->
        if
          List.for_all
            (fun triple ->
              Rdf.Index.mem target
                (Triple.subst
                   (fun var -> Variable.Map.find_opt var assignment)
                   triple))
            (Tgraph.triples source)
        then incr count
    | var :: rest ->
        List.iter
          (fun term -> go (Variable.Map.add var term assignment) rest)
          target_terms
  in
  (match source_vars, target_terms with
  | [], _ -> go Variable.Map.empty []
  | _, [] -> ()
  | _ -> go Variable.Map.empty source_vars);
  !count

let hom_vs_brute_force =
  qcheck ~count:200 "solver existence agrees with brute force"
    (QCheck.make QCheck.Gen.(int_bound 100000))
    (fun seed ->
      let source = Testutil.tgraph_of_seed ~triples:3 ~vars:3 seed in
      let target =
        Rdf.Index.of_triples
          (Graph.triples (Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:7 (seed + 1)))
      in
      Homomorphism.exists ~source ~target ()
      = (brute_force_count source target > 0))

let hom_count_vs_brute_force =
  qcheck ~count:100 "solver count agrees with brute force"
    (QCheck.make QCheck.Gen.(int_bound 100000))
    (fun seed ->
      let source = Testutil.tgraph_of_seed ~triples:2 ~vars:2 seed in
      let target =
        Rdf.Index.of_triples
          (Graph.triples (Testutil.graph_of_seed ~nodes:3 ~preds:2 ~triples:6 (seed + 2)))
      in
      Homomorphism.count ~source ~target () = brute_force_count source target)

(* ------------------------------------------------------------------ *)
(* Gtgraph                                                             *)
(* ------------------------------------------------------------------ *)

let test_gtgraph_make () =
  Alcotest.check_raises "X must be within vars"
    (Invalid_argument "Gtgraph.make: X must be a subset of vars(S)") (fun () ->
      ignore (Gtgraph.make path2 (vs [ "zz" ])));
  let g = Gtgraph.make path2 (vs [ "a" ]) in
  check Alcotest.int "existential vars" 2
    (Variable.Set.cardinal (Gtgraph.existential_vars g))

let test_gtgraph_hom_fixes_x () =
  let one = Tgraph.of_triples [ t (v "a") (iri "p:r") (v "b") ] in
  let g = Gtgraph.make one (vs [ "a" ]) in
  let target_ok =
    Gtgraph.make (Tgraph.of_triples [ t (v "a") (iri "p:r") (v "c") ]) (vs [ "a" ])
  in
  check Alcotest.bool "fixed var present" true (Gtgraph.maps_to g target_ok);
  let target_bad =
    Gtgraph.make (Tgraph.of_triples [ t (v "z") (iri "p:r") (v "a") ]) (vs [ "a" ])
  in
  check Alcotest.bool "cannot move fixed var" false (Gtgraph.maps_to g target_bad)

let test_gtgraph_tw () =
  let k = 4 in
  let kk = Workload.Query_families.kk k [ "o1"; "o2"; "o3"; "o4" ] in
  let g = Gtgraph.make kk Variable.Set.empty in
  check Alcotest.int "clique pattern tw = k-1" (k - 1) (Gtgraph.tw g);
  let g2 = Gtgraph.make kk (Tgraph.vars kk) in
  check Alcotest.int "no existential vertices -> 1" 1 (Gtgraph.tw g2);
  let s = Tgraph.of_triples [ t (v "x") (iri "p:p") (v "y") ] in
  check Alcotest.int "no existential edges -> 1" 1
    (Gtgraph.tw (Gtgraph.make s (vs [ "x" ])))

let test_hom_to_graph () =
  let g = Gtgraph.make path2 (vs [ "a" ]) in
  let graph = Generator.path ~n:5 ~pred:"r" in
  let mu0 = Variable.Map.singleton (Variable.of_string "a") (Generator.node 0) in
  check Alcotest.bool "extends from node 0" true (Gtgraph.maps_to_graph g ~mu:mu0 graph);
  let mu4 = Variable.Map.singleton (Variable.of_string "a") (Generator.node 4) in
  check Alcotest.bool "cannot extend from sink" false
    (Gtgraph.maps_to_graph g ~mu:mu4 graph);
  Alcotest.check_raises "µ must cover X"
    (Invalid_argument "Gtgraph.hom_to_graph: µ does not cover X") (fun () ->
      ignore (Gtgraph.hom_to_graph g ~mu:Variable.Map.empty graph))

(* ------------------------------------------------------------------ *)
(* Cores (Example 3 of the paper)                                      *)
(* ------------------------------------------------------------------ *)

let example3_s k =
  let names = List.init k (fun i -> Printf.sprintf "o%d" (i + 1)) in
  Tgraph.union
    (Tgraph.of_triples
       [
         t (v "z") (iri "p:q") (v "x");
         t (v "x") (iri "p:p") (v "y");
         t (v "y") (iri "p:r") (v "o1");
       ])
    (Workload.Query_families.kk k names)

let example3_s' k =
  Tgraph.union (example3_s k)
    (Tgraph.of_triples
       [ t (v "y") (iri "p:r") (v "o"); t (v "o") (iri "p:r") (v "o") ])

let x3 = vs [ "x"; "y"; "z" ]

let test_example3 () =
  let k = 4 in
  let s = Gtgraph.make (example3_s k) x3 in
  check Alcotest.bool "(S,X) is a core" true (Cores.is_core s);
  check Alcotest.int "ctw(S,X) = k-1" (k - 1) (Cores.ctw s);
  let s' = Gtgraph.make (example3_s' k) x3 in
  check Alcotest.bool "(S',X) is not a core" false (Cores.is_core s');
  check Alcotest.int "tw(S',X) = k-1" (k - 1) (Gtgraph.tw s');
  check Alcotest.int "ctw(S',X) = 1" 1 (Cores.ctw s');
  (* the paper names the core: C' = {(z,q,x),(x,p,y),(y,r,o),(o,r,o)} *)
  let core = Cores.core s' in
  check Alcotest.int "core size" 4 (Tgraph.cardinal (Gtgraph.s core));
  check Alcotest.bool "core equivalent to S'" true (Gtgraph.hom_equivalent core s')

let core_laws =
  qcheck ~count:80 "core laws: is_core, equivalent, idempotent, ctw <= tw"
    Testutil.small_gtgraph (fun g ->
      let core = Cores.core g in
      Cores.is_core core
      && Gtgraph.hom_equivalent core g
      && Gtgraph.equal (Cores.core core) core
      && Cores.ctw g <= Gtgraph.tw g)

let tw_at_most_law =
  qcheck ~count:80 "tw_at_most g k = (tw g <= k), k in 0..5"
    Testutil.small_gtgraph (fun g ->
      let tw = Gtgraph.tw g in
      List.for_all (fun k -> Gtgraph.tw_at_most g k = (tw <= k)) [ 0; 1; 2; 3; 4; 5 ])

let core_subgraph_law =
  qcheck ~count:80 "core is a subgraph of the original"
    Testutil.small_gtgraph (fun g ->
      Tgraph.subset (Gtgraph.s (Cores.core g)) (Gtgraph.s g))

(* ------------------------------------------------------------------ *)
(* Tree-decomposition-guided exact test                                *)
(* ------------------------------------------------------------------ *)

let test_td_hom_basics () =
  let g = Gtgraph.make path2 (vs [ "a" ]) in
  let graph = Generator.path ~n:5 ~pred:"r" in
  let mu node = Variable.Map.singleton (Variable.of_string "a") (Generator.node node) in
  check Alcotest.bool "extends from source" true
    (Td_hom.maps_to_graph g ~mu:(mu 0) graph);
  check Alcotest.bool "fails from sink" false
    (Td_hom.maps_to_graph g ~mu:(mu 4) graph);
  (* exactness where the pebble game over-approximates: transitive
     triangle vs directed 3-cycle *)
  let tri =
    Tgraph.of_triples
      [
        t (v "o1") (iri "p:r") (v "o2");
        t (v "o2") (iri "p:r") (v "o3");
        t (v "o1") (iri "p:r") (v "o3");
      ]
  in
  let closed = Gtgraph.make tri Variable.Set.empty in
  let c3 = Generator.cycle ~n:3 ~pred:"r" in
  check Alcotest.bool "td is exact on the fooling instance" false
    (Td_hom.maps_to_graph closed ~mu:Variable.Map.empty c3);
  check Alcotest.bool "2-pebble is not" true
    (Pebble.Pebble_game.wins ~k:2 closed ~mu:Variable.Map.empty c3);
  (* ground-only instances *)
  let ground = Gtgraph.make (Tgraph.of_triples [ t (iri "n:0") (iri "p:r") (iri "n:1") ]) Variable.Set.empty in
  check Alcotest.bool "ground present" true
    (Td_hom.maps_to_graph ground ~mu:Variable.Map.empty graph);
  Td_hom.reset_stats ();
  ignore (Td_hom.maps_to_graph g ~mu:(mu 0) graph);
  check Alcotest.bool "stats counted" true (Td_hom.stats_bag_assignments () > 0)

let test_td_hom_edge_cases () =
  (* disconnected Gaifman graph: two independent constraints, both must
     hold (the semijoin pass checks every decomposition component) *)
  let s =
    Tgraph.of_triples
      [ t (v "a") (iri "p:r") (v "b"); t (v "c") (iri "p:q") (v "d") ]
  in
  let g = Gtgraph.make s Variable.Set.empty in
  let both =
    Graph.of_triples
      [
        t (iri "n:0") (iri "p:r") (iri "n:1");
        t (iri "n:2") (iri "p:q") (iri "n:3");
      ]
  in
  let only_r = Graph.of_triples [ t (iri "n:0") (iri "p:r") (iri "n:1") ] in
  check Alcotest.bool "both components satisfied" true
    (Td_hom.maps_to_graph g ~mu:Variable.Map.empty both);
  check Alcotest.bool "missing component fails" false
    (Td_hom.maps_to_graph g ~mu:Variable.Map.empty only_r);
  (* repeated variable inside one triple *)
  let loop = Gtgraph.make (Tgraph.of_triples [ t (v "x") (iri "p:r") (v "x") ]) Variable.Set.empty in
  check Alcotest.bool "needs a self loop" false
    (Td_hom.maps_to_graph loop ~mu:Variable.Map.empty (Generator.cycle ~n:3 ~pred:"r"));
  check Alcotest.bool "finds a self loop" true
    (Td_hom.maps_to_graph loop ~mu:Variable.Map.empty
       (Graph.of_triples [ t (iri "n:0") (iri "p:r") (iri "n:0") ]));
  (* empty graph *)
  check Alcotest.bool "empty graph" false
    (Td_hom.maps_to_graph g ~mu:Variable.Map.empty Graph.empty);
  Alcotest.check_raises "µ must cover X"
    (Invalid_argument "Td_hom.maps_to_graph: µ does not cover X") (fun () ->
      ignore
        (Td_hom.maps_to_graph
           (Gtgraph.make s (vs [ "a" ]))
           ~mu:Variable.Map.empty Graph.empty))

let td_hom_exact =
  qcheck ~count:120 "td-guided test = exact homomorphism test"
    (QCheck.make QCheck.Gen.(int_bound 100000))
    (fun seed ->
      let g = Testutil.gtgraph_of_seed ~triples:4 ~vars:4 seed in
      let graph = Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:9 (seed + 3) in
      if Rdf.Iri.Set.is_empty (Graph.dom graph) then true
      else begin
        let iris = Iri.Set.elements (Graph.dom graph) in
        let state = Random.State.make [| seed; 5 |] in
        let mu =
          Variable.Set.fold
            (fun var acc ->
              Variable.Map.add var
                (Term.Iri (List.nth iris (Random.State.int state (List.length iris))))
                acc)
            (Gtgraph.x g) Variable.Map.empty
        in
        Td_hom.maps_to_graph g ~mu graph = Gtgraph.maps_to_graph g ~mu graph
      end)

let () =
  Alcotest.run "tgraphs"
    [
      ( "tgraph",
        [
          Alcotest.test_case "basics" `Quick test_tgraph_basics;
          Alcotest.test_case "rename_avoiding" `Quick test_rename_avoiding;
          Alcotest.test_case "freeze/thaw" `Quick test_freeze_thaw;
        ] );
      ( "homomorphism",
        [
          Alcotest.test_case "paths" `Quick test_hom_basics;
          Alcotest.test_case "identity" `Quick test_hom_identity;
          Alcotest.test_case "pre-assignments" `Quick test_hom_pre;
          Alcotest.test_case "repeated variables" `Quick test_hom_repeated_var;
          Alcotest.test_case "all/limit" `Quick test_hom_all_distinct;
          Alcotest.test_case "empty source" `Quick test_hom_empty_source;
          hom_vs_brute_force;
          hom_count_vs_brute_force;
        ] );
      ( "gtgraph",
        [
          Alcotest.test_case "make" `Quick test_gtgraph_make;
          Alcotest.test_case "hom fixes X" `Quick test_gtgraph_hom_fixes_x;
          Alcotest.test_case "tw conventions" `Quick test_gtgraph_tw;
          Alcotest.test_case "hom to graph" `Quick test_hom_to_graph;
        ] );
      ( "cores",
        [
          Alcotest.test_case "paper example 3" `Quick test_example3;
          core_laws;
          core_subgraph_law;
          tw_at_most_law;
        ] );
      ( "td-guided test",
        [
          Alcotest.test_case "basics" `Quick test_td_hom_basics;
          Alcotest.test_case "edge cases" `Quick test_td_hom_edge_cases;
          td_hom_exact;
        ] );
    ]
