(* Cross-checks for the dictionary-encoded pebble kernel and the
   evaluation-wide cache: Encoded_pebble must agree with the reference
   Pebble_game on every input, and the cached evaluators must return
   exactly the answer sets of a term-level Theorem-1 oracle built on
   that reference game. *)

open Rdf
open Tgraphs

let check = Alcotest.check

let qcheck ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let seed_arb = QCheck.make QCheck.Gen.(int_bound 100000)
let v = Term.var
let iri = Term.iri
let t s p o = Triple.make s p o

let random_mu g graph seed =
  let iris = Iri.Set.elements (Graph.dom graph) in
  let state = Random.State.make [| seed; 5 |] in
  Variable.Set.fold
    (fun var acc ->
      Variable.Map.add var
        (Term.Iri (List.nth iris (Random.State.int state (List.length iris))))
        acc)
    (Gtgraph.x g) Variable.Map.empty

(* ------------------------------------------------------------------ *)
(* Kernel equivalence                                                  *)
(* ------------------------------------------------------------------ *)

let kernel_agrees k =
  qcheck ~count:120 (Printf.sprintf "Encoded_pebble = Pebble_game (k=%d)" k)
    seed_arb
    (fun seed ->
      let g = Testutil.gtgraph_of_seed ~triples:3 ~vars:3 seed in
      let graph =
        Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:8 (seed + k)
      in
      if Iri.Set.is_empty (Graph.dom graph) then true
      else begin
        let mu = random_mu g graph seed in
        let enc = Encoded.Encoded_graph.of_graph_cached graph in
        Encoded.Encoded_pebble.wins ~k g ~mu enc
        = Pebble.Pebble_game.wins ~k g ~mu graph
      end)

let kernel_agrees_unknown_iri =
  qcheck ~count:80 "kernel agrees when µ hits an IRI outside the graph"
    seed_arb
    (fun seed ->
      let g = Testutil.gtgraph_of_seed ~triples:3 ~vars:3 seed in
      let graph =
        Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:8 (seed + 17)
      in
      match Variable.Set.choose_opt (Gtgraph.x g) with
      | None -> true
      | Some victim ->
          if Iri.Set.is_empty (Graph.dom graph) then true
          else begin
            let mu =
              Variable.Map.add victim
                (Term.Iri (Iri.of_string "z:not-in-graph"))
                (random_mu g graph seed)
            in
            let enc = Encoded.Encoded_graph.of_graph_cached graph in
            Encoded.Encoded_pebble.wins ~k:2 g ~mu enc
            = Pebble.Pebble_game.wins ~k:2 g ~mu graph
          end)

let test_kernel_classics () =
  (* the classic separation: C3 fools 2 pebbles, not 3 *)
  let k3_pattern =
    Tgraph.of_triples
      [
        t (v "o1") (iri "p:r") (v "o2");
        t (v "o1") (iri "p:r") (v "o3");
        t (v "o2") (iri "p:r") (v "o3");
      ]
  in
  let closed = Gtgraph.make k3_pattern Variable.Set.empty in
  let no_mu = Variable.Map.empty in
  let c3 = Generator.cycle ~n:3 ~pred:"r" in
  let enc = Encoded.Encoded_graph.of_graph c3 in
  check Alcotest.bool "2 pebbles fooled" true
    (Encoded.Encoded_pebble.wins ~k:2 closed ~mu:no_mu enc);
  check Alcotest.bool "3 pebbles exact" false
    (Encoded.Encoded_pebble.wins ~k:3 closed ~mu:no_mu enc)

let test_kernel_invalid_args () =
  Alcotest.check_raises "k >= 1"
    (Invalid_argument "Encoded_pebble.compile: k must be at least 1")
    (fun () ->
      ignore
        (Encoded.Encoded_pebble.compile ~k:0
           (Gtgraph.make Tgraph.empty Variable.Set.empty)
           (Encoded.Encoded_graph.of_graph Graph.empty)));
  let s = Tgraph.of_triples [ t (v "x") (iri "p:r") (v "y") ] in
  let g = Gtgraph.make s (Variable.Set.singleton (Variable.of_string "x")) in
  Alcotest.check_raises "µ covers X"
    (Invalid_argument "Encoded_pebble.wins: µ does not cover X")
    (fun () ->
      ignore
        (Encoded.Encoded_pebble.wins ~k:2 g ~mu:Variable.Map.empty
           (Encoded.Encoded_graph.of_graph Graph.empty)))

let test_kernel_stats () =
  Encoded.Encoded_pebble.reset_stats ();
  check Alcotest.int "reset" 0 (Encoded.Encoded_pebble.stats_families_explored ());
  let s = Tgraph.of_triples [ t (v "x") (iri "p:r") (v "y") ] in
  let g = Gtgraph.make s Variable.Set.empty in
  let graph = Generator.path ~n:4 ~pred:"r" in
  ignore
    (Encoded.Encoded_pebble.wins ~k:2 g ~mu:Variable.Map.empty
       (Encoded.Encoded_graph.of_graph graph));
  check Alcotest.bool "counted" true
    (Encoded.Encoded_pebble.stats_families_explored () > 0)

(* ------------------------------------------------------------------ *)
(* Cached evaluators return identical answer sets                      *)
(* ------------------------------------------------------------------ *)

let forest_of_seed seed =
  Wdpt.Pattern_forest.of_algebra (Testutil.wd_pattern_of_seed ~triples:5 seed)

(* The term-level Theorem-1 algorithm, kept here as the oracle the
   cached evaluators are checked against: the child test is the
   reference Pebble_game on the union game
   [(pat(T') ∪ pat(n), vars(T')) →µ_{k+1} G], and candidates come from
   the term-level homomorphism solver. *)
let term_child_test ~k tree graph mu subtree n =
  let s =
    Tgraph.union (Wdpt.Subtree.pat subtree) (Wdpt.Pattern_tree.pat tree n)
  in
  let g = Gtgraph.make s (Wdpt.Subtree.vars subtree) in
  Pebble.Pebble_game.wins ~k:(k + 1) g
    ~mu:(Sparql.Mapping.to_assignment mu) graph

let term_check ~k forest graph mu =
  List.exists
    (fun tree ->
      match Wdpt.Subtree.matching tree graph mu with
      | None -> false
      | Some subtree ->
          not
            (List.exists
               (term_child_test ~k tree graph mu subtree)
               (Wdpt.Subtree.children subtree)))
    forest

(* The Theorem-1 enumeration: homomorphisms of every subtree pattern,
   kept when [check] accepts them. *)
let solutions_by check forest graph =
  let target = Graph.to_index graph in
  List.fold_left
    (fun acc tree ->
      List.fold_left
        (fun acc subtree ->
          List.fold_left
            (fun acc h ->
              match Sparql.Mapping.of_assignment h with
              | Some mu when check forest graph mu ->
                  Sparql.Mapping.Set.add mu acc
              | _ -> acc)
            acc
            (Homomorphism.all ~source:(Wdpt.Subtree.pat subtree) ~target ()))
        acc (Wdpt.Subtree.all tree))
    Sparql.Mapping.Set.empty forest

let term_solutions ~k = solutions_by (term_check ~k)

let pebble_eval_solutions_agree =
  qcheck ~count:40 "Pebble_eval.solutions: cached = term kernel" seed_arb
    (fun seed ->
      let forest = forest_of_seed seed in
      let graph =
        Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:9 (seed + 23)
      in
      Sparql.Mapping.Set.equal
        (Wd_core.Pebble_eval.solutions ~k:2 forest graph)
        (term_solutions ~k:2 forest graph))

let pebble_eval_check_agrees =
  qcheck ~count:60 "Pebble_eval.check: cached = term kernel" seed_arb
    (fun seed ->
      let pattern = Testutil.wd_pattern_of_seed ~triples:5 seed in
      let forest = Wdpt.Pattern_forest.of_algebra pattern in
      let graph =
        Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:9 (seed + 29)
      in
      let mu = Testutil.mapping_for pattern graph seed in
      Wd_core.Pebble_eval.check ~k:2 forest graph mu
      = term_check ~k:2 forest graph mu)

let enumerate_solutions_agree =
  qcheck ~count:40 "Enumerate.solutions: cached = term kernel" seed_arb
    (fun seed ->
      let forest = forest_of_seed seed in
      let graph =
        Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:9 (seed + 31)
      in
      Sparql.Mapping.Set.equal
        (Wd_core.Enumerate.solutions ~maximality:(`Pebble 2) forest graph)
        (term_solutions ~k:2 forest graph))

let fresh_cache_agrees =
  qcheck ~count:40 "Enumerate.solutions: shared cache = fresh cache per check"
    seed_arb
    (fun seed ->
      let forest = forest_of_seed seed in
      let graph =
        Testutil.graph_of_seed ~nodes:4 ~preds:2 ~triples:9 (seed + 37)
      in
      let enumerated =
        Wd_core.Enumerate.solutions ~maximality:(`Pebble 2) forest graph
      in
      Sparql.Mapping.Set.equal enumerated
        (Wd_core.Pebble_eval.solutions
           ~cache:(Wd_core.Plan_cache.create ())
           ~k:2 forest graph)
      && Sparql.Mapping.Set.equal enumerated
           (solutions_by
              (fun forest graph mu ->
                Wd_core.Pebble_eval.check
                  ~cache:(Wd_core.Plan_cache.create ())
                  ~k:2 forest graph mu)
              forest graph))

(* ------------------------------------------------------------------ *)
(* Cache behaviour                                                     *)
(* ------------------------------------------------------------------ *)

let pebble_stats cache =
  (Wd_core.Plan_cache.stats cache).Wd_core.Plan_cache.pebble

let test_cache_stats () =
  (* a root + optional child over a tournament: every candidate µ issues
     the same child game, so verdicts repeat and the game compiles once *)
  let p =
    Sparql.Algebra.(
      opt
        (triple (t (v "x") (iri "p:r") (v "y")))
        (triple (t (v "y") (iri "p:r") (v "z"))))
  in
  let forest = Wdpt.Pattern_forest.of_algebra p in
  let graph = Generator.transitive_tournament ~n:6 ~pred:"r" in
  let cache = Wd_core.Plan_cache.create () in
  let answers = Wd_core.Pebble_eval.solutions ~cache ~k:2 forest graph in
  let stats = pebble_stats cache in
  check Alcotest.bool "some answers" true
    (not (Sparql.Mapping.Set.is_empty answers));
  check Alcotest.int "one game for the one child" 1 stats.compiled;
  check Alcotest.bool "misses counted" true (stats.misses > 0);
  check Alcotest.bool "verdicts were reused" true (stats.hits > 0);
  (* a fresh cache per check carries nothing from one check to the next *)
  let fresh =
    List.map
      (fun mu ->
        let c = Wd_core.Plan_cache.create () in
        ignore (Wd_core.Pebble_eval.check ~cache:c ~k:2 forest graph mu);
        pebble_stats c)
      (Sparql.Mapping.Set.elements answers)
  in
  let total f =
    List.fold_left (fun acc (s : Wd_core.Pebble_cache.stats) -> acc + f s) 0
      fresh
  in
  check Alcotest.int "fresh caches: no hits" 0 (total (fun s -> s.hits));
  check Alcotest.bool "fresh caches: recompile" true
    (total (fun s -> s.compiled) > stats.compiled)

(* The plan cache keys its entries on the store epoch, so a cache used
   for another graph answers for this one as a fresh cache would. *)
let test_epoch_keyed_cache () =
  let p =
    Sparql.Algebra.(
      opt
        (triple (t (v "x") (iri "p:r") (v "y")))
        (triple (t (v "y") (iri "p:r") (v "z"))))
  in
  let forest = Wdpt.Pattern_forest.of_algebra p in
  let graph = Generator.transitive_tournament ~n:4 ~pred:"r" in
  let other = Generator.path ~n:4 ~pred:"r" in
  let cache = Wd_core.Plan_cache.create () in
  let on_other = Wd_core.Pebble_eval.solutions ~cache ~k:2 forest other in
  let answers = Wd_core.Pebble_eval.solutions ~cache ~k:2 forest graph in
  check Testutil.mapping_set "another graph's cache = a fresh cache"
    (Wd_core.Pebble_eval.solutions ~k:2 forest graph)
    answers;
  check Testutil.mapping_set "the first graph still answers as before"
    on_other
    (Wd_core.Pebble_eval.solutions ~cache ~k:2 forest other);
  Sparql.Mapping.Set.iter
    (fun mu ->
      check Alcotest.bool "check agrees" true
        (Wd_core.Pebble_eval.check ~cache ~k:2 forest graph mu))
    answers;
  check Alcotest.int "one entry per store" 2
    (Wd_core.Plan_cache.stats cache).Wd_core.Plan_cache.live_entries

let test_engine_stats () =
  let p =
    Sparql.Algebra.(
      opt
        (triple (t (v "x") (iri "p:r") (v "y")))
        (triple (t (v "y") (iri "p:r") (v "z"))))
  in
  let graph = Generator.transitive_tournament ~n:5 ~pred:"r" in
  let plan = Wd_core.Engine.plan p in
  let sols, stats = Wd_core.Engine.solutions_stats plan graph in
  check Alcotest.bool "pebble plan reports stats" true (stats <> None);
  check Alcotest.bool "answers" true (not (Sparql.Mapping.Set.is_empty sols));
  let naive = Wd_core.Engine.plan ~force:Wd_core.Engine.Naive p in
  let sols', stats' = Wd_core.Engine.solutions_stats naive graph in
  (* the naive plan runs the same enumerator, with the exact test *)
  check Alcotest.bool "naive plan reports stats" true (stats' <> None);
  check Testutil.mapping_set "same answers" sols sols'

let test_graph_encoding_memo () =
  Encoded.Encoded_graph.clear_cache ();
  let graph = Generator.path ~n:4 ~pred:"r" in
  let a = Encoded.Encoded_graph.of_graph_cached graph in
  let b = Encoded.Encoded_graph.of_graph_cached graph in
  check Alcotest.bool "same encoding object" true (a == b);
  Encoded.Encoded_graph.clear_cache ();
  let c = Encoded.Encoded_graph.of_graph_cached graph in
  check Alcotest.bool "cleared cache re-encodes" true (c != a);
  check Alcotest.int "same content" (Encoded.Encoded_graph.cardinal a)
    (Encoded.Encoded_graph.cardinal c)

let () =
  Alcotest.run "encoded_pebble"
    [
      ( "kernel",
        [
          Alcotest.test_case "classic instances" `Quick test_kernel_classics;
          Alcotest.test_case "invalid arguments" `Quick test_kernel_invalid_args;
          Alcotest.test_case "stats" `Quick test_kernel_stats;
          kernel_agrees 2;
          kernel_agrees 3;
          kernel_agrees_unknown_iri;
        ] );
      ( "evaluators",
        [
          pebble_eval_solutions_agree;
          pebble_eval_check_agrees;
          enumerate_solutions_agree;
          fresh_cache_agrees;
        ] );
      ( "cache",
        [
          Alcotest.test_case "stats and reuse" `Quick test_cache_stats;
          Alcotest.test_case "keyed by store epoch" `Quick
            test_epoch_keyed_cache;
          Alcotest.test_case "engine surfacing" `Quick test_engine_stats;
          Alcotest.test_case "graph encoding memo" `Quick test_graph_encoding_memo;
        ] );
    ]
