(* Plan-level caching across evaluations. The contract under test:
   repeated [Engine.solutions] calls on one plan reuse compiled hom
   sources, pebble games and relaxed verdicts; mutating the graph (a new
   store, hence a new epoch) invalidates and recompiles without changing
   answers; and every node keeps one game per k, whose relaxed verdicts
   never stand in for the exact child join.

   Evaluation runs each child join capped until its first extension and
   stages a pebble game only when the search trips its cap, so the
   pebble side is exercised two ways: through evaluation on
   [clique_pattern] (F_6 on a tournament with no transitive 6-clique:
   the clique child's search trips the cap and the game refutes it) and
   through [Engine.check], which is the pebble algorithm as stated on
   the same plan cache. *)

open Rdf
module Engine = Wd_core.Engine
module Plan_cache = Wd_core.Plan_cache

let check = Alcotest.check

let set_equal = Sparql.Mapping.Set.equal

let pattern =
  Sparql.Parser.parse_exn "{ ?a p:knows ?b . OPTIONAL { ?b p:email ?m } }"

let graph = Generator.social ~seed:5 ~people:30

let reference g = Sparql.Eval.eval pattern g

let clique_forest = Workload.Query_families.f_k 6
let clique_pattern = Wdpt.Pattern_forest.to_algebra clique_forest

let tournament seed =
  fst (Workload.Graph_families.tournament_instance ~seed ~n:9)

let clique_reference g = Wdpt.Semantics.solutions clique_forest g

(* ------------------------------------------------------------------ *)
(* Epoch stamps                                                        *)
(* ------------------------------------------------------------------ *)

let test_epochs () =
  let t =
    Triple.make (Term.iri "n:a") (Term.iri "p:knows") (Term.iri "n:b")
  in
  let g1 = Graph.of_triples [ t ] and g2 = Graph.of_triples [ t ] in
  check Alcotest.bool "structurally equal graphs" true (Graph.equal g1 g2);
  check Alcotest.bool "distinct stores get distinct epochs" true
    (Graph.epoch g1 <> Graph.epoch g2);
  check Alcotest.bool "union is a new store" true
    (Graph.epoch (Graph.union g1 g2) <> Graph.epoch g1);
  check Alcotest.int "encoded copy carries the source epoch"
    (Graph.epoch g1)
    (Encoded.Encoded_graph.epoch (Encoded.Encoded_graph.of_graph g1))

(* ------------------------------------------------------------------ *)
(* Warm reuse on an unchanged graph                                    *)
(* ------------------------------------------------------------------ *)

let test_warm_reuse () =
  let plan = Engine.plan ~optimize:false pattern in
  let a1, s1 = Engine.solutions_stats plan graph in
  let s1 = Option.get s1 in
  let a2, s2 = Engine.solutions_stats plan graph in
  let s2 = Option.get s2 in
  check Alcotest.bool "both runs match the reference" true
    (set_equal a1 (reference graph) && set_equal a2 a1);
  check Alcotest.int "no invalidation" 0 s2.Plan_cache.invalidations;
  check Alcotest.int "hom sources compiled once, reused warm"
    s1.Plan_cache.hom_sources s2.Plan_cache.hom_sources;
  check Alcotest.int "cheap children stage no pebble game" 0
    s2.Plan_cache.pebble.Wd_core.Pebble_cache.compiled;
  (* the walk is deterministic: the warm run runs the cold run's joins
     again, one per parent row and child, and finds the same extensions *)
  check Alcotest.bool "the cold run joined some child" true
    (s1.Plan_cache.joins.runs > 0);
  check Alcotest.int "warm run repeats the cold run's joins"
    (2 * s1.Plan_cache.joins.runs) s2.Plan_cache.joins.runs;
  check Alcotest.int "... and their extensions"
    (2 * s1.Plan_cache.joins.extensions) s2.Plan_cache.joins.extensions;
  check Alcotest.int "one row per answer on a single tree"
    s2.Plan_cache.rows s2.Plan_cache.answers

(* The pebble side of warm reuse: the cold run trips the cap and stages
   the clique child's game; the warm run compiles nothing, trips the
   same caps and answers them from the game's verdict memo. *)
let test_warm_reuse_past_cap () =
  let g = tournament 1 in
  let plan = Engine.plan clique_pattern in
  let a1, s1 = Engine.solutions_stats plan g in
  let s1 = Option.get s1 in
  let a2, s2 = Engine.solutions_stats plan g in
  let s2 = Option.get s2 in
  check Alcotest.bool "both runs match the reference" true
    (set_equal a1 (clique_reference g) && set_equal a2 a1);
  check Alcotest.bool "the cold run tripped the cap" true
    (s1.Plan_cache.joins.capped > 0);
  check Alcotest.bool "a game was compiled" true
    (s1.Plan_cache.pebble.Wd_core.Pebble_cache.compiled > 0);
  check Alcotest.int "pebble games compiled once, reused warm"
    s1.Plan_cache.pebble.Wd_core.Pebble_cache.compiled
    s2.Plan_cache.pebble.Wd_core.Pebble_cache.compiled;
  check Alcotest.int "the warm run trips the same caps"
    (2 * s1.Plan_cache.joins.capped) s2.Plan_cache.joins.capped;
  check Alcotest.bool "warm run asks the game again" true
    (s2.Plan_cache.joins.pebble_answers > s1.Plan_cache.joins.pebble_answers);
  check Alcotest.bool "warm run hits the verdict memo" true
    (s2.Plan_cache.pebble.Wd_core.Pebble_cache.hits
    > s1.Plan_cache.pebble.Wd_core.Pebble_cache.hits);
  check Alcotest.int "... and runs no game"
    s1.Plan_cache.pebble.Wd_core.Pebble_cache.misses
    s2.Plan_cache.pebble.Wd_core.Pebble_cache.misses

(* ------------------------------------------------------------------ *)
(* Epoch invalidation on mutation                                      *)
(* ------------------------------------------------------------------ *)

let test_epoch_invalidation () =
  let g1 = tournament 1 in
  let plan = Engine.plan clique_pattern in
  let a1, s1 = Engine.solutions_stats plan g1 in
  let s1 = Option.get s1 in
  check Alcotest.bool "first run matches the reference" true
    (set_equal a1 (clique_reference g1));
  (* "mutate" the graph: immutable stores make every mutation a new
     store with a fresh epoch *)
  let g2 =
    Graph.union g1
      (Graph.of_triples
         [
           Triple.make Workload.Graph_families.anchor (Term.iri "p:p")
             (Workload.Graph_families.tnode 1);
         ])
  in
  let a2, s2 = Engine.solutions_stats plan g2 in
  let s2 = Option.get s2 in
  check Alcotest.bool "answers track the mutated graph" true
    (set_equal a2 (clique_reference g2));
  check Alcotest.bool "the mutation is visible in the answers" false
    (set_equal a1 a2);
  check Alcotest.int "stats report the invalidation" 1
    s2.Plan_cache.invalidations;
  check Alcotest.bool "sources were recompiled for the new store" true
    (s2.Plan_cache.hom_sources > s1.Plan_cache.hom_sources);
  check Alcotest.bool "games were recompiled for the new store" true
    (s2.Plan_cache.pebble.Wd_core.Pebble_cache.compiled
    > s1.Plan_cache.pebble.Wd_core.Pebble_cache.compiled);
  (* steady again on the new store *)
  let a3, s3 = Engine.solutions_stats plan g2 in
  let s3 = Option.get s3 in
  check Alcotest.bool "re-run on the new store agrees" true (set_equal a3 a2);
  check Alcotest.int "no further invalidation" 1 s3.Plan_cache.invalidations;
  check Alcotest.int "no further compilation"
    s2.Plan_cache.hom_sources s3.Plan_cache.hom_sources;
  check Alcotest.int "no further game compilation"
    s2.Plan_cache.pebble.Wd_core.Pebble_cache.compiled
    s3.Plan_cache.pebble.Wd_core.Pebble_cache.compiled;
  (* membership checks share the plan cache and survive the swap too *)
  Sparql.Mapping.Set.iter
    (fun mu ->
      check Alcotest.bool "check agrees on the new store" true
        (Engine.check plan g2 mu))
    a2

(* ------------------------------------------------------------------ *)
(* Multi-store MRU (PR 4)                                              *)
(* ------------------------------------------------------------------ *)

let run_on plan g =
  let a, s = Engine.solutions_stats plan g in
  check Alcotest.bool "answers match the reference" true
    (set_equal a (reference g));
  Option.get s

(* On the clique fixture, so both stores' entries hold staged games and
   relaxed verdicts: alternating must keep both. *)
let run_clique plan g =
  let a, s = Engine.solutions_stats plan g in
  check Alcotest.bool "answers match the reference" true
    (set_equal a (clique_reference g));
  Option.get s

let test_mru_two_stores () =
  let plan = Engine.plan clique_pattern in
  let g1 = tournament 1 and g2 = tournament 2 in
  let s1 = run_clique plan g1 in
  let s2 = run_clique plan g2 in
  check Alcotest.int "switching stores builds a second entry" 1
    s2.Plan_cache.invalidations;
  check Alcotest.bool "each store trips the cap and stages its games" true
    (s1.Plan_cache.joins.capped > 0
    && s2.Plan_cache.joins.capped > s1.Plan_cache.joins.capped
    && s1.Plan_cache.pebble.Wd_core.Pebble_cache.compiled > 0
    && s2.Plan_cache.pebble.Wd_core.Pebble_cache.compiled
       > s1.Plan_cache.pebble.Wd_core.Pebble_cache.compiled);
  (* alternating between two live stores rebuilds nothing: each run is a
     front-of-list bump, not a recompile *)
  let s = ref s2 in
  for _ = 1 to 3 do
    s := run_clique plan g1;
    s := run_clique plan g2
  done;
  check Alcotest.int "alternation never rebuilds" 1
    !s.Plan_cache.invalidations;
  check Alcotest.int "no eviction under the default capacity" 0
    !s.Plan_cache.plan_evictions;
  check Alcotest.int "both stores stay cached" 2 !s.Plan_cache.live_entries;
  check Alcotest.int "no sources recompiled while alternating"
    s2.Plan_cache.hom_sources !s.Plan_cache.hom_sources;
  check Alcotest.int "no games recompiled while alternating"
    s2.Plan_cache.pebble.Wd_core.Pebble_cache.compiled
    !s.Plan_cache.pebble.Wd_core.Pebble_cache.compiled;
  (* both relaxed-verdict memos survive: every game question while
     alternating is a hit, none runs a game *)
  check Alcotest.int "no game run while alternating"
    s2.Plan_cache.pebble.Wd_core.Pebble_cache.misses
    !s.Plan_cache.pebble.Wd_core.Pebble_cache.misses;
  check Alcotest.bool "the games keep answering" true
    (!s.Plan_cache.joins.pebble_answers > s2.Plan_cache.joins.pebble_answers)

let test_plan_capacity_eviction () =
  let plan = Engine.plan ~optimize:false ~plan_capacity:1 pattern in
  let g1 = graph and g2 = Generator.social ~seed:11 ~people:25 in
  let s1 = run_on plan g1 in
  let s2 = run_on plan g2 in
  let s3 = run_on plan g1 in
  check Alcotest.int "every switch rebuilds at capacity 1" 2
    s3.Plan_cache.invalidations;
  check Alcotest.int "each rebuild evicted the previous store" 2
    s3.Plan_cache.plan_evictions;
  check Alcotest.int "one live entry" 1 s3.Plan_cache.live_entries;
  (* counters from the evicted entries are retired, not lost: the third
     build adds to a total that still includes the first two *)
  check Alcotest.bool "retired child-join counts accumulate" true
    (s3.Plan_cache.joins.runs > s2.Plan_cache.joins.runs);
  check Alcotest.int "every child join counted once across evictions"
    (s2.Plan_cache.joins.runs + s1.Plan_cache.joins.runs)
    s3.Plan_cache.joins.runs

(* ------------------------------------------------------------------ *)
(* Shared unary base domains (PR 4)                                    *)
(* ------------------------------------------------------------------ *)

let test_unary_sharing () =
  let iri = Term.iri in
  let knows a b = Triple.make (iri a) (iri "p:knows") (iri b) in
  let active a = Triple.make (iri a) (iri "p:active") (iri "p:yes") in
  let g =
    Graph.of_triples
      [
        knows "n:a" "n:b"; knows "n:b" "n:c"; knows "n:a" "n:c";
        knows "n:c" "n:d"; active "n:b"; active "n:c";
      ]
  in
  (* both OPTIONAL children contain the same µ-independent unary triple
     pattern (?_ p:active p:yes); its base domain is scanned once and
     reused when the second child's game family is compiled *)
  let p =
    Sparql.Parser.parse_exn
      "{ ?a p:knows ?b . OPTIONAL { ?a p:knows ?y . ?y p:active p:yes } \
       OPTIONAL { ?b p:knows ?z . ?z p:active p:yes } }"
  in
  let plan = Engine.plan ~optimize:false p in
  let answers = Engine.solutions plan g in
  check Alcotest.bool "answers match the reference" true
    (set_equal answers (Sparql.Eval.eval p g));
  (* evaluation answers these cheap children exact; [Engine.check] runs
     the pebble algorithm on the same plan cache *)
  Sparql.Mapping.Set.iter
    (fun mu ->
      check Alcotest.bool "check accepts every answer" true
        (Engine.check plan g mu))
    answers;
  let pb = (Plan_cache.stats plan.Engine.cache).Plan_cache.pebble in
  check Alcotest.bool "some unary domains were scanned" true
    (pb.Wd_core.Pebble_cache.unary_misses > 0);
  check Alcotest.bool "the two children's games share unary scans" true
    (pb.Wd_core.Pebble_cache.unary_hits > 0)

(* ------------------------------------------------------------------ *)
(* Retired counters across eviction churn (PR 6)                       *)
(* ------------------------------------------------------------------ *)

(* A (tree, child, candidates) triple for driving child joins directly:
   the root of the test pattern with its OPTIONAL child, and every
   match of the root in [g] as an id assignment over the tree's
   variable table. *)
let child_test_setup cache g =
  let tree = List.hd (Wdpt.Pattern_forest.of_algebra pattern) in
  let child =
    List.hd (Wdpt.Subtree.children (Wdpt.Subtree.root_only tree))
  in
  let root = Plan_cache.node_source cache g tree Wdpt.Pattern_tree.root in
  let candidates =
    Encoded.Encoded_hom.fold root ~init:[] ~f:(fun acc h ->
        (Array.copy h :: acc, `Continue))
  in
  (tree, child, candidates)

let join_count s = s.Plan_cache.joins.Plan_cache.runs

(* The counters of an entry pushed out by another store (a server plan
   across a reload) must reach the retired totals, not be dropped with
   the entry. *)
let test_eviction_retires_counters () =
  let cache = Plan_cache.create ~plan_capacity:1 () in
  let g1 = graph and g2 = Generator.social ~seed:11 ~people:25 in
  let tree, child, candidates = child_test_setup cache g1 in
  let exact =
    Plan_cache.extensions
      (Plan_cache.stage_child_join cache g1 `Hom tree child)
  in
  let relaxed =
    Plan_cache.run_pebble (Plan_cache.pebble_test cache g1 ~k:2 tree child)
  in
  List.iter (fun a -> ignore (exact a); ignore (relaxed a)) candidates;
  let before = Plan_cache.stats cache in
  (* evicting g1's entry by touching a second store at capacity 1 *)
  ignore (Plan_cache.encoded cache g2);
  let after = Plan_cache.stats cache in
  let n = List.length candidates in
  check Alcotest.int "one eviction" 1 after.Plan_cache.plan_evictions;
  check Alcotest.int "the evicted entry's child joins survive eviction" n
    after.Plan_cache.joins.runs;
  check Alcotest.int "... and the relaxed lookups" n
    (after.Plan_cache.pebble.Wd_core.Pebble_cache.hits
    + after.Plan_cache.pebble.Wd_core.Pebble_cache.misses);
  check Alcotest.bool "totals never dip across the eviction" true
    (join_count after >= join_count before
    && after.Plan_cache.pebble.Wd_core.Pebble_cache.compiled
       >= before.Plan_cache.pebble.Wd_core.Pebble_cache.compiled);
  (* a release (the server's, after a reload) drops the live entry the
     same way, without counting an eviction *)
  let tree2, child2, candidates2 = child_test_setup cache g2 in
  let exact2 =
    Plan_cache.extensions
      (Plan_cache.stage_child_join cache g2 `Hom tree2 child2)
  in
  List.iter (fun a -> ignore (exact2 a)) candidates2;
  Plan_cache.release cache;
  let released = Plan_cache.stats cache in
  check Alcotest.int "a release leaves no live entry" 0
    released.Plan_cache.live_entries;
  check Alcotest.int "... counts no eviction" 1
    released.Plan_cache.plan_evictions;
  check Alcotest.int "... and keeps every child join"
    (n + List.length candidates2)
    released.Plan_cache.joins.runs

(* Reconciliation under churn: a plan that switches between two stores
   at capacity 1 — as a server plan does across reloads — accounts
   exactly the child joins, pebble answers and verdict lookups of two
   plans that each stay on one store. Eviction may force recompilation,
   never lose counters, and every total is monotone run over run. On the
   clique fixture the cap trips, so the game answers too, and its
   counters reach the retired tally through eviction. *)
let test_retired_reconcile_churn () =
  let g1 = tournament 1 and g2 = tournament 2 in
  let churn = Engine.plan ~plan_capacity:1 clique_pattern in
  let only1 = Engine.plan clique_pattern and only2 = Engine.plan clique_pattern in
  let tests s =
    s.Plan_cache.joins.Plan_cache.runs + s.Plan_cache.joins.pebble_answers
  in
  let lookups s =
    s.Plan_cache.pebble.Wd_core.Pebble_cache.hits
    + s.Plan_cache.pebble.Wd_core.Pebble_cache.misses
  in
  let compiled s = s.Plan_cache.pebble.Wd_core.Pebble_cache.compiled in
  let last = ref (0, 0) in
  let run plan g =
    let a, s = Engine.solutions_stats plan g in
    check Alcotest.bool "answers match the reference" true
      (set_equal a (clique_reference g));
    Option.get s
  in
  let monotone s =
    let t, l = !last in
    check Alcotest.bool "child-join total is monotone across churn" true
      (tests s >= t);
    check Alcotest.bool "lookup total is monotone across churn" true
      (lookups s >= l);
    last := (tests s, lookups s)
  in
  let final = ref None in
  for _ = 1 to 3 do
    monotone (run churn g1);
    let sc = run churn g2 in
    monotone sc;
    final := Some (sc, run only1 g1, run only2 g2)
  done;
  let sc, s1, s2 = Option.get !final in
  check Alcotest.bool "joins ran and the game answered on both stores" true
    (List.for_all
       (fun s ->
         s.Plan_cache.joins.runs > 0 && s.Plan_cache.joins.pebble_answers > 0
         && lookups s > 0)
       [ s1; s2 ]);
  check Alcotest.int
    "a switching plan accounts the child joins of two single-store plans"
    (tests s1 + tests s2) (tests sc);
  check Alcotest.int "... and their pebble answers"
    (s1.Plan_cache.joins.pebble_answers + s2.Plan_cache.joins.pebble_answers)
    sc.Plan_cache.joins.pebble_answers;
  check Alcotest.int "... and their verdict lookups"
    (lookups s1 + lookups s2) (lookups sc);
  check Alcotest.bool "churn recompiles, reconciled in the retired tally" true
    (compiled sc > compiled s1 + compiled s2);
  check Alcotest.int "single-store plans never evict" 0
    (s1.Plan_cache.plan_evictions + s2.Plan_cache.plan_evictions);
  check Alcotest.int "capacity 1 evicted on every switch" 5
    sc.Plan_cache.plan_evictions

(* ------------------------------------------------------------------ *)
(* Counters across a crashed evaluation                                *)
(* ------------------------------------------------------------------ *)

(* An evaluation that raises mid-walk (here its sink) must not lose or
   double-count the child joins it ran: the next evaluation on the same
   cache is exact, and its joins add exactly one clean walk's. *)
let test_crash_mid_walk () =
  let forest = Wdpt.Pattern_forest.of_algebra pattern in
  let walk cache sink =
    Wd_core.Enumerate.iter_rows ~maximality:(`Pebble 2) ~cache forest graph
      sink
  in
  let clean = Plan_cache.create () in
  walk clean ignore;
  let clean_joins = join_count (Plan_cache.stats clean) in
  let cache = Plan_cache.create () in
  let emitted = ref 0 in
  (match
     walk cache (fun _ ->
         incr emitted;
         if !emitted = 3 then failwith "crash")
   with
  | () -> Alcotest.fail "the sink's exception was swallowed"
  | exception Failure msg -> check Alcotest.string "crash" "crash" msg);
  let crashed = join_count (Plan_cache.stats cache) in
  check Alcotest.bool "the crashed walk ran some joins, not all" true
    (crashed > 0 && crashed < clean_joins);
  check Alcotest.int "reading the counters again adds nothing" crashed
    (join_count (Plan_cache.stats cache));
  check Alcotest.bool "the next evaluation is exact" true
    (set_equal (Wd_core.Enumerate.solutions ~cache forest graph)
       (reference graph));
  check Alcotest.int "... and adds exactly one walk's joins"
    (crashed + clean_joins)
    (join_count (Plan_cache.stats cache))

(* ------------------------------------------------------------------ *)
(* One child test per node                                             *)
(* ------------------------------------------------------------------ *)

(* Every subtree a node is a child of shares the same variables with
   it (those on its ancestor path), so one game per (node, k) and one
   relaxed verdict per (node, k, µ|shared) serve them all. *)
let test_one_game_per_node () =
  List.iter
    (fun (name, tree, predicates) ->
      let forest = [ tree ] in
      let g = Generator.random_graph ~seed:7 ~n:12 ~predicates ~m:40 in
      let children = List.length (Wdpt.Pattern_tree.nodes tree) - 1 in
      (* the distinct (node, µ|shared) keys Pebble_eval.solutions can ask *)
      let keys = Hashtbl.create 64 in
      let target = Graph.to_index g in
      List.iter
        (fun subtree ->
          List.iter
            (fun h ->
              match Sparql.Mapping.of_assignment h with
              | None -> ()
              | Some mu -> (
                  match Wdpt.Subtree.matching tree g mu with
                  | None -> ()
                  | Some sub ->
                      List.iter
                        (fun n ->
                          let shared =
                            Variable.Set.inter
                              (Tgraphs.Tgraph.vars
                                 (Wdpt.Pattern_tree.pat tree n))
                              (Wdpt.Subtree.vars sub)
                          in
                          Hashtbl.replace keys
                            ( n,
                              Sparql.Mapping.to_list
                                (Sparql.Mapping.restrict shared mu) )
                            ())
                        (Wdpt.Subtree.children sub)))
            (Tgraphs.Homomorphism.all ~source:(Wdpt.Subtree.pat subtree)
               ~target ()))
        (Wdpt.Subtree.all tree);
      let cache = Plan_cache.create () in
      let pebble () = (Plan_cache.stats cache).Plan_cache.pebble in
      let answers = Wd_core.Pebble_eval.solutions ~cache ~k:1 forest g in
      check Alcotest.bool (name ^ ": answers = Wdpt.Semantics") true
        (set_equal answers (Wdpt.Semantics.solutions forest g));
      check Alcotest.int (name ^ ": one game per child node") children
        (pebble ()).Wd_core.Pebble_cache.compiled;
      check Alcotest.bool
        (name ^ ": misses <= distinct (node, µ|shared) keys")
        true
        ((pebble ()).Wd_core.Pebble_cache.misses <= Hashtbl.length keys);
      ignore (Wd_core.Pebble_eval.solutions ~cache ~k:2 forest g);
      check Alcotest.int (name ^ ": one more game per node at k = 2")
        (2 * children) (pebble ()).Wd_core.Pebble_cache.compiled)
    [
      ( "star5",
        Workload.Query_families.star_query 5,
        List.init 6 (Printf.sprintf "c%d") );
      ("comb3", Workload.Query_families.comb_query 3, [ "p"; "t" ]);
    ]

(* Join orders are shared per store by signature. In a star of five
   children over one predicate — root (?x p:c ?y0), child i
   (?x p:c ?yi) — the children are isomorphic up to slot names, with ?x
   bound and ?yi free: the first is compiled and the other four are
   hits. The root has the same pattern with ?x free, a different bound
   split, so it misses. A second store starts from an empty table. *)
let test_decisions_shared_per_store () =
  let n = 5 in
  let v s = Term.Var (Variable.of_string s) in
  let tree =
    Wdpt.Pattern_tree.make
      ~labels:
        (Array.init (n + 1) (fun i ->
             Tgraphs.Tgraph.of_triples
               [ Triple.make (v "x") (Term.iri "p:c") (v (Printf.sprintf "y%d" i)) ]))
      ~parent:(Array.init (n + 1) (fun i -> if i = 0 then -1 else 0))
  in
  let nodes = Wdpt.Pattern_tree.nodes tree in
  let cache = Plan_cache.create () in
  let decide g =
    List.map (fun m -> (m, Plan_cache.node_decision cache g tree m)) nodes
  in
  let counts () =
    let s = Plan_cache.stats cache in
    (s.Plan_cache.decision_misses, s.Plan_cache.decision_hits)
  in
  let counted = Alcotest.(pair int int) in
  let g1 = Generator.random_graph ~seed:7 ~n:12 ~predicates:[ "c" ] ~m:40 in
  let g2 = Generator.random_graph ~seed:8 ~n:12 ~predicates:[ "c" ] ~m:40 in
  let d1 = decide g1 in
  check counted "root and first child miss, four children hit" (2, n - 1)
    (counts ());
  ignore (decide g1);
  check counted "each node decides once per store" (2, n - 1) (counts ());
  let d2 = decide g2 in
  check counted "a second store misses again" (4, 2 * (n - 1)) (counts ());
  (* every decision, shared or not, is the one a fresh compile gives *)
  List.iter
    (fun (g, decisions) ->
      let enc = Plan_cache.encoded cache g in
      List.iter
        (fun (m, d) ->
          let src = Plan_cache.node_source cache g tree m in
          let vars = Encoded.Encoded_hom.variables src in
          let above =
            if m = Wdpt.Pattern_tree.root then Variable.Set.empty
            else Wdpt.Pattern_tree.vars_of_node tree Wdpt.Pattern_tree.root
          in
          let fresh =
            Optimizer.Join_order.compile enc ~nvars:(Array.length vars)
              ~bound:(fun s -> Variable.Set.mem vars.(s) above)
              ~node:m
              (Encoded.Encoded_hom.patterns src)
          in
          check Alcotest.bool
            (Printf.sprintf "node %d: the shared decision = a fresh compile" m)
            true (d = fresh))
        decisions)
    [ (g1, d1); (g2, d2) ]

(* The two kinds of verdict never answer for each other. On the fooling
   instance, 2 pebbles wrongly let clique_child 3's child extend µ: a
   remembered relaxed verdict would drop µ from the exact enumeration,
   and a remembered exact verdict would make the pebble check accept. *)
let test_verdict_kinds_apart () =
  let forest = [ Workload.Query_families.clique_child 3 ] in
  let pattern = Wdpt.Pattern_forest.to_algebra forest in
  let g, mu = Workload.Graph_families.cyclic_triangles_instance ~m:3 in
  let plan () = Engine.plan ~force:(Engine.Pebble 1) pattern in
  let reference = Wdpt.Semantics.solutions forest g in
  check Alcotest.bool "fresh plan: check is fooled" false
    (Engine.check (plan ()) g mu);
  check Alcotest.bool "fresh plan: solutions = Wdpt.Semantics" true
    (set_equal (Engine.solutions (plan ()) g) reference);
  check Alcotest.bool "µ is an answer" true
    (Sparql.Mapping.Set.mem mu reference);
  let p = plan () in
  check Alcotest.bool "solutions first" true
    (set_equal (Engine.solutions p g) reference);
  check Alcotest.bool "then check stays false" false (Engine.check p g mu);
  let p = plan () in
  check Alcotest.bool "check first" false (Engine.check p g mu);
  check Alcotest.bool "then solutions = Wdpt.Semantics" true
    (set_equal (Engine.solutions p g) reference)

let test_k_check () =
  let fails f =
    Alcotest.check_raises "k >= 1"
      (Invalid_argument "Plan_cache.pebble_test: k must be at least 1")
      (fun () -> ignore (f ()))
  in
  let tree = List.hd (Wdpt.Pattern_forest.of_algebra pattern) in
  fails (fun () ->
      Plan_cache.pebble_test (Plan_cache.create ()) graph ~k:0 tree 1);
  fails (fun () ->
      Wd_core.Enumerate.solutions ~maximality:(`Pebble 0) [ tree ] graph)

(* ------------------------------------------------------------------ *)
(* Capped child joins                                                  *)
(* ------------------------------------------------------------------ *)

module Enumerate = Wd_core.Enumerate

(* Capped joins are exact: the game only ever refutes a child, which is
   sound, and a child it cannot refute is joined in full. *)
let portfolio_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120
       ~name:"Pebble dw = Hom = algebra"
       (QCheck.make
          ~print:(fun (g, q) ->
            Printf.sprintf "graph seed %d, query seed %d" g q)
          QCheck.Gen.(pair Testutil.seed_gen Testutil.seed_gen))
       (fun (gseed, qseed) ->
         let g = Testutil.graph_of_seed ~nodes:5 ~preds:2 ~triples:14 gseed in
         let p = Testutil.wd_pattern_of_seed ~triples:6 qseed in
         let forest = Wdpt.Pattern_forest.of_algebra p in
         let dw = Wd_core.Domination_width.of_forest forest in
         let reference = Sparql.Eval.eval p g in
         List.for_all
           (fun maximality ->
             set_equal reference
               (Enumerate.solutions ~maximality ~optimize:`On forest g))
           [ `Hom; `Pebble dw ]))

(* A cap that trips: F_6's clique child cannot embed in the tournament,
   and the search for it outgrows |adom|^2 ticks, so the pebble game
   (k = dw = 1) is asked and refutes it. *)
let test_cap_trips () =
  let g = tournament 3 in
  let expected = clique_reference g in
  let cache = Plan_cache.create () in
  let got =
    Enumerate.solutions ~maximality:(`Pebble 1) ~cache clique_forest g
  in
  let s = Plan_cache.stats cache in
  check Alcotest.bool "answers = Wdpt.Semantics" true (set_equal got expected);
  check Alcotest.bool "the cap tripped" true (s.Plan_cache.joins.capped > 0);
  check Alcotest.bool "the pebble game answered" true
    (s.Plan_cache.joins.pebble_answers > 0);
  check Alcotest.bool "the cheap children stayed under the cap" true
    (s.Plan_cache.joins.runs > s.Plan_cache.joins.capped);
  (* the cap is the game's own bound d^(k+1), d the largest candidate
     domain of the child's game: the whole dictionary for F_6's
     unconstrained clique variables; T3's self-loop child has no
     candidate in a tournament, so the floor 2 *)
  let cache = Plan_cache.create () in
  let enc = Encoded.Encoded_graph.of_graph_cached g in
  let adom = Dictionary.size (Encoded.Encoded_graph.dictionary enc) in
  let t1 = List.nth clique_forest 0 and t3 = List.nth clique_forest 2 in
  check Alcotest.int "clique child: |adom|^2 at k = 1" (adom * adom)
    (Plan_cache.exact_cap cache g t1 2 1);
  check Alcotest.int "self-loop child: 2^2" 4
    (Plan_cache.exact_cap cache g t3 1 1);
  check Alcotest.int "saturates" (max_int - 1)
    (Plan_cache.exact_cap cache g t1 2 60)

(* {!Workload.Query_families.f_k_typed} on a tournament whose nodes
   are the class, padded with unrelated terms. The game ranges over the
   class only, so the cap is |class|^2, not |dictionary|^2, and the
   clique search trips it. *)
let test_cap_follows_unary_domains () =
  let n = 9 in
  let forest = Workload.Query_families.f_k_typed 6 in
  check Alcotest.int "typing keeps dw = 1" 1
    (Wd_core.Domination_width.of_forest forest);
  let pad i = Term.iri (Printf.sprintf "u:%d" i) in
  let g =
    Graph.union (tournament 3)
      (Graph.of_triples
         (List.init n (fun i ->
              Triple.make (Workload.Graph_families.tnode i) (Term.iri "p:type")
                Workload.Query_families.class_t)
         @ List.init 300 (fun i ->
               Triple.make (pad i) (Term.iri "p:s") (pad (i + 1)))))
  in
  let cache = Plan_cache.create () in
  let got =
    Enumerate.solutions ~maximality:(`Pebble 1) ~optimize:`On ~cache forest g
  in
  check Alcotest.bool "answers = Wdpt.Semantics" true
    (set_equal got (Wdpt.Semantics.solutions forest g));
  check Alcotest.int "clique child: |class|^2" (n * n)
    (Plan_cache.exact_cap cache g (List.hd forest) 2 1);
  let s = Plan_cache.stats cache in
  check Alcotest.bool "the clique search tripped the class-sized cap" true
    (s.Plan_cache.joins.capped > 0 && s.Plan_cache.joins.pebble_answers > 0)

let () =
  Alcotest.run "plan_cache"
    [
      ("epochs", [ Alcotest.test_case "stamps" `Quick test_epochs ]);
      ( "reuse",
        [
          Alcotest.test_case "warm reuse" `Quick test_warm_reuse;
          Alcotest.test_case "warm reuse past the cap" `Quick
            test_warm_reuse_past_cap;
          Alcotest.test_case "epoch invalidation" `Quick
            test_epoch_invalidation;
        ] );
      ( "mru",
        [
          Alcotest.test_case "two stores alternate warm" `Quick
            test_mru_two_stores;
          Alcotest.test_case "capacity 1 evicts" `Quick
            test_plan_capacity_eviction;
        ] );
      ( "unary",
        [
          Alcotest.test_case "base domains shared across families" `Quick
            test_unary_sharing;
        ] );
      ( "retired",
        [
          Alcotest.test_case "eviction retires node counters" `Quick
            test_eviction_retires_counters;
          Alcotest.test_case "churn reconciles with no-churn" `Quick
            test_retired_reconcile_churn;
        ] );
      ( "crash",
        [
          Alcotest.test_case "counters after a crash mid-walk" `Quick
            test_crash_mid_walk;
        ] );
      ( "per node",
        [
          Alcotest.test_case "one game per (child node, k)" `Quick
            test_one_game_per_node;
          Alcotest.test_case "join orders shared per store by signature"
            `Quick test_decisions_shared_per_store;
          Alcotest.test_case "exact and relaxed verdicts kept apart" `Quick
            test_verdict_kinds_apart;
          Alcotest.test_case "k is checked where a test is staged" `Quick
            test_k_check;
        ] );
      ( "portfolio",
        [
          portfolio_differential;
          Alcotest.test_case "a tripped cap hands over to the game" `Quick
            test_cap_trips;
          Alcotest.test_case "the cap follows the game's unary domains"
            `Quick test_cap_follows_unary_domains;
        ] );
    ]
