(* Multicore evaluation, one root match per work item. The contract
   under test: the domain pool preserves input order and
   first-exception semantics; forked budgets share one fuel account and
   one cancellation flag, so any member tripping stops the group within
   a lease; and evaluation at [~domains:n] is indistinguishable from
   [~domains:1] — the same rows in the same order, the same number of
   child joins and pebble answers, and no pebble game staged where the
   sequential path stages none — for every n. *)

open Rdf
module Pool = Parallel.Pool
module Budget = Resource.Budget
module Engine = Wd_core.Engine
module Enumerate = Wd_core.Enumerate
module Plan_cache = Wd_core.Plan_cache
module Pebble_cache = Wd_core.Pebble_cache

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Pool units                                                          *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  Pool.with_pool ~domains:4 @@ fun pool ->
  let items = List.init 257 Fun.id in
  let out =
    Pool.map_stream pool
      ~init:(fun slot -> slot)
      ~f:(fun _ x -> x * x)
      items
  in
  check
    Alcotest.(list int)
    "results in input order"
    (List.map (fun x -> x * x) items)
    out;
  (* a batch shorter than the chunking threshold stays inline *)
  check Alcotest.(list int) "singleton batch" [ 49 ]
    (Pool.map_stream pool ~init:(fun _ -> ()) ~f:(fun () x -> x * x) [ 7 ])

let test_fold_merge_order () =
  Pool.with_pool ~domains:3 @@ fun pool ->
  let items = List.init 100 Fun.id in
  let acc =
    Pool.fold_ordered pool
      ~init:(fun _ -> ())
      ~f:(fun () x -> x)
      ~merge:(fun acc x -> x :: acc)
      [] items
  in
  check Alcotest.(list int) "merge sees sequential order" (List.rev items) acc

let test_worker_state_per_slot () =
  Pool.with_pool ~domains:4 @@ fun pool ->
  let inits = Atomic.make 0 in
  let out =
    Pool.map_stream pool
      ~init:(fun slot ->
        Atomic.incr inits;
        slot)
      ~f:(fun slot _ -> slot)
      (List.init 500 Fun.id)
  in
  check Alcotest.bool "init ran at most once per slot" true
    (Atomic.get inits <= 4);
  check Alcotest.bool "slots are within the pool" true
    (List.for_all (fun s -> s >= 0 && s < 4) out)

let test_exception_cancels () =
  Pool.with_pool ~domains:4 @@ fun pool ->
  let processed = Atomic.make 0 in
  let n = 1000 in
  match
    Pool.map_stream pool
      ~init:(fun _ -> ())
      ~f:(fun () x ->
        Atomic.incr processed;
        if x = 0 then failwith "boom";
        x)
      (List.init n Fun.id)
  with
  | _ -> Alcotest.fail "the worker's exception was swallowed"
  | exception Failure msg ->
      check Alcotest.string "first exception is re-raised" "boom" msg;
      check Alcotest.bool "remaining items were skipped cooperatively" true
        (Atomic.get processed < n)

(* ------------------------------------------------------------------ *)
(* Budget forking                                                      *)
(* ------------------------------------------------------------------ *)

let test_fork_unlimited () =
  let views = Budget.fork Budget.unlimited 4 in
  check Alcotest.int "four views" 4 (Array.length views);
  Array.iter
    (fun v -> check Alcotest.bool "unlimited stays unlimited" false
        (Budget.is_limited v))
    views

let test_fork_fuel_exact () =
  let fuel = 1000 in
  let b = Budget.make ~fuel () in
  let views = Budget.fork b 3 in
  let total = ref 0 in
  (try
     Array.iter
       (fun v ->
         for _ = 1 to 10 * fuel do
           Budget.tick v;
           incr total
         done)
       views
   with Budget.Exhausted _ -> ());
  (* same contract as the unforked budget (see test_resource): fuel f
     permits f-1 ticks, the f-th raises *)
  check Alcotest.int "the group's ticks total exactly the fuel" (fuel - 1)
    !total

let test_cancel_trips_siblings () =
  let b = Budget.make ~fuel:1_000_000 () in
  let views = Budget.fork b 2 in
  Budget.cancel views.(0);
  let ticks = ref 0 in
  (try
     for _ = 1 to 1000 do
       Budget.tick views.(1);
       incr ticks
     done;
     Alcotest.fail "sibling kept running after cancel"
   with Budget.Exhausted _ -> ());
  check Alcotest.bool "sibling stopped within one lease" true (!ticks <= 64)

let test_exhaustion_trips_siblings () =
  let b = Budget.make ~fuel:100 () in
  let views = Budget.fork b 2 in
  (* view 0 drains the whole pool *)
  (try
     while true do
       Budget.tick views.(0)
     done
   with Budget.Exhausted _ -> ());
  let ticks = ref 0 in
  (try
     for _ = 1 to 1000 do
       Budget.tick views.(1);
       incr ticks
     done;
     Alcotest.fail "sibling kept running after exhaustion"
   with Budget.Exhausted _ -> ());
  check Alcotest.bool "sibling stopped within one lease" true (!ticks <= 64)

let test_join_returns_fuel () =
  let b = Budget.make ~fuel:1000 () in
  let views = Budget.fork b 2 in
  for _ = 1 to 100 do
    Budget.tick views.(0)
  done;
  Budget.join b views;
  check Alcotest.int "workers' spending is folded into the parent" 100
    (Budget.spent b);
  (* the parent got the unspent fuel back: 900 units remain, which — by
     the fuel f = f-1 ticks contract — permit exactly 899 more ticks *)
  let total = ref 0 in
  (try
     for _ = 1 to 10_000 do
       Budget.tick b;
       incr total
     done
   with Budget.Exhausted _ -> ());
  check Alcotest.int "unspent fuel returned to the parent" 899 !total

(* ------------------------------------------------------------------ *)
(* Parallel evaluation: determinism                                    *)
(* ------------------------------------------------------------------ *)

let determinism_prop =
  QCheck.Test.make ~count:25
    ~name:"solutions ~domains:n = solutions ~domains:1 (same order)"
    (QCheck.make
       ~print:(fun (g, q) -> Printf.sprintf "graph seed %d, query seed %d" g q)
       QCheck.Gen.(pair Testutil.seed_gen Testutil.seed_gen))
    (fun (gseed, qseed) ->
      let graph = Testutil.graph_of_seed ~nodes:8 ~preds:2 ~triples:20 gseed in
      let p = Testutil.wd_pattern_of_seed ~union:1 ~triples:5 qseed in
      let forest = Wdpt.Pattern_forest.of_algebra p in
      let rows domains =
        let acc = ref [] in
        Enumerate.iter_rows ~maximality:(`Pebble 2) ~domains forest graph
          (fun row -> acc := Array.copy row :: !acc);
        !acc
      in
      let base = Enumerate.solutions ~maximality:(`Pebble 2) forest graph in
      let base_rows = rows 1 in
      List.for_all
        (fun n ->
          Sparql.Mapping.Set.equal base
            (Enumerate.solutions ~maximality:(`Pebble 2) ~domains:n forest
               graph)
          && rows n = base_rows)
        [ 2; 4 ])

let pattern =
  Sparql.Parser.parse_exn
    "{ ?a p:knows ?b . OPTIONAL { ?b p:email ?m } OPTIONAL { ?a p:knows ?c } }"

(* On F_6 over a tournament with no transitive 6-clique the clique
   child's exact search trips its cap, so both sides of the portfolio
   run on the workers. *)
let clique_forest = Workload.Query_families.f_k 6
let clique_pattern = Wdpt.Pattern_forest.to_algebra clique_forest

let tournament =
  fst (Workload.Graph_families.tournament_instance ~seed:1 ~n:9)

let test_stats_merge () =
  let lookups domains =
    let plan = Engine.plan clique_pattern in
    let answers, s = Engine.solutions_stats ~domains plan tournament in
    let s = Option.get s in
    check Alcotest.bool "answers match the reference" true
      (Sparql.Mapping.Set.equal answers
         (Wdpt.Semantics.solutions clique_forest tournament));
    let j = s.Plan_cache.joins in
    ( j.Plan_cache.runs,
      j.Plan_cache.pebble_answers,
      s.Plan_cache.pebble.Pebble_cache.hits
      + s.Plan_cache.pebble.Pebble_cache.misses,
      s.Plan_cache.pebble.Pebble_cache.compiled )
  in
  let t1, p1, l1, c1 = lookups 1 in
  check Alcotest.bool "the cap trips: games staged and asked" true
    (p1 > 0 && l1 > 0 && c1 > 0);
  List.iter
    (fun n ->
      let tn, pn, ln, cn = lookups n in
      let at what = Printf.sprintf "%s invariant at %d domains" what n in
      check Alcotest.int (at "child joins") t1 tn;
      check Alcotest.int (at "pebble answers") p1 pn;
      check Alcotest.int (at "verdict lookups") l1 ln;
      check Alcotest.int (at "games compiled (once)") c1 cn)
    [ 2; 4 ]

(* Workers run the same capped joins as the sequential path: on a comb
   query every child join finds its first extension (or runs out) well
   inside the cap, so no domain count stages a pebble game. *)
let test_workers_exact_first () =
  let forest = [ Workload.Query_families.comb_query 3 ] in
  let p = Wdpt.Pattern_forest.to_algebra forest in
  (* the comb's spine and teeth predicates *)
  let g = Generator.random_graph ~seed:3 ~n:12 ~predicates:[ "p"; "t" ] ~m:40 in
  let run domains =
    let plan = Engine.plan p in
    let answers, s = Engine.solutions_stats ~domains plan g in
    let s = Option.get s in
    (answers, s.Plan_cache.pebble.Pebble_cache.compiled,
     s.Plan_cache.joins.Plan_cache.runs)
  in
  let a1, c1, e1 = run 1 in
  let a2, c2, e2 = run 2 in
  check Alcotest.bool "non-trivial answers" true
    (Sparql.Mapping.Set.cardinal a1 > 1);
  check Alcotest.bool "answers match the reference" true
    (Sparql.Mapping.Set.equal a1 (Sparql.Eval.eval p g));
  check Alcotest.bool "same answers at 2 domains" true
    (Sparql.Mapping.Set.equal a1 a2);
  check Alcotest.int "no pebble game at 1 domain" 0 c1;
  check Alcotest.int "no pebble game at 2 domains" 0 c2;
  check Alcotest.int "the same child joins at both" e1 e2

(* ------------------------------------------------------------------ *)
(* Budget propagation into workers                                     *)
(* ------------------------------------------------------------------ *)

let test_parallel_exhaustion_phase () =
  let big = Generator.social ~seed:21 ~people:80 in
  let plan = Engine.plan pattern in
  match Engine.solutions ~budget:(Budget.make ~fuel:500 ()) ~domains:2 plan big
  with
  | _ -> Alcotest.fail "a 500-tick budget should not cover this evaluation"
  | exception Budget.Exhausted { phase; spent } ->
      check Alcotest.bool "phase names an evaluation stage" true
        (List.mem phase [ "enumerate"; "pebble"; "hom" ]);
      check Alcotest.bool "spent is positive" true (spent > 0)

let test_parallel_deadline_prompt () =
  let big = Generator.social ~seed:22 ~people:150 in
  let plan = Engine.plan pattern in
  let t0 = Unix.gettimeofday () in
  (match
     Engine.solutions
       ~budget:(Budget.make ~timeout:0.02 ())
       ~domains:4 plan big
   with
  | _ -> () (* finished under the deadline: nothing to time *)
  | exception Budget.Exhausted _ -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  check Alcotest.bool
    (Printf.sprintf "workers stopped promptly (%.3fs)" elapsed)
    true (elapsed < 5.0)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map_stream order" `Quick test_map_order;
          Alcotest.test_case "fold_ordered merge order" `Quick
            test_fold_merge_order;
          Alcotest.test_case "worker state per slot" `Quick
            test_worker_state_per_slot;
          Alcotest.test_case "exception cancels batch" `Quick
            test_exception_cancels;
        ] );
      ( "budget",
        [
          Alcotest.test_case "fork unlimited" `Quick test_fork_unlimited;
          Alcotest.test_case "fork conserves fuel" `Quick test_fork_fuel_exact;
          Alcotest.test_case "cancel trips siblings" `Quick
            test_cancel_trips_siblings;
          Alcotest.test_case "exhaustion trips siblings" `Quick
            test_exhaustion_trips_siblings;
          Alcotest.test_case "join returns fuel" `Quick test_join_returns_fuel;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest determinism_prop;
          Alcotest.test_case "stats merge consistent" `Quick test_stats_merge;
          Alcotest.test_case "workers answer exact first" `Quick
            test_workers_exact_first;
        ] );
      ( "budget propagation",
        [
          Alcotest.test_case "exhaustion carries the phase" `Quick
            test_parallel_exhaustion_phase;
          Alcotest.test_case "deadline stops workers promptly" `Quick
            test_parallel_deadline_prompt;
        ] );
    ]
