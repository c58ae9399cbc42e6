(* Robustness: resource budgets, fault injection into every
   potentially-exponential kernel, and the engine's graceful degradation.

   The tests here are the contract behind the CLI's --timeout/--fuel/
   --max-solutions flags: kernels stop promptly when the budget runs out,
   and the planner degrades instead of hanging. *)

open Rdf
module Budget = Resource.Budget

let check = Alcotest.check

let exhausts f =
  match f () with
  | _ -> Alcotest.fail "expected Budget.Exhausted"
  | exception Budget.Exhausted _ -> ()

(* ------------------------------------------------------------------ *)
(* Budget unit behaviour                                               *)
(* ------------------------------------------------------------------ *)

let test_unlimited () =
  let b = Budget.unlimited in
  check Alcotest.bool "not limited" false (Budget.is_limited b);
  for _ = 1 to 10_000 do
    Budget.tick b;
    Budget.solution b
  done;
  (* make with no limits is the unlimited budget: zero bookkeeping *)
  check Alcotest.bool "make () is unlimited" false
    (Budget.is_limited (Budget.make ()))

let test_fuel () =
  let b = Budget.make ~fuel:10 () in
  check Alcotest.bool "limited" true (Budget.is_limited b);
  for _ = 1 to 9 do Budget.tick b done;
  check Alcotest.int "spent counts ticks" 9 (Budget.spent b);
  (match Budget.tick b with
  | () -> Alcotest.fail "tick 10 must exhaust"
  | exception Budget.Exhausted { spent; _ } ->
      check Alcotest.int "spent at exhaustion" 10 spent);
  (* once exhausted, every further tick keeps failing *)
  exhausts (fun () -> Budget.tick b)

let test_max_solutions () =
  let b = Budget.make ~max_solutions:2 () in
  Budget.solution b;
  Budget.solution b;
  exhausts (fun () -> Budget.solution b)

let test_timeout () =
  let b = Budget.make ~timeout:0.05 () in
  let start = Unix.gettimeofday () in
  (match
     while true do Budget.tick b done
   with
  | () -> ()
  | exception Budget.Exhausted _ -> ());
  let elapsed = Unix.gettimeofday () -. start in
  check Alcotest.bool "stopped within 2x the deadline" true (elapsed < 0.1 *. 2.)

let test_phase () =
  let b = Budget.make ~fuel:1000 () in
  check Alcotest.string "initial phase" "-" (Budget.phase b);
  Budget.with_phase b "outer" (fun () ->
      check Alcotest.string "inside" "outer" (Budget.phase b);
      Budget.with_phase b "inner" (fun () ->
          check Alcotest.string "nested" "inner" (Budget.phase b));
      check Alcotest.string "restored" "outer" (Budget.phase b));
  let b' = Budget.make ~fuel:3 () in
  match
    Budget.with_phase b' "doomed" (fun () ->
        while true do Budget.tick b' done)
  with
  | () -> Alcotest.fail "must exhaust"
  | exception Budget.Exhausted { phase; _ } ->
      check Alcotest.string "exhaustion reports the phase" "doomed" phase

let test_validation () =
  let invalid f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  invalid (fun () -> Budget.make ~fuel:0 ());
  invalid (fun () -> Budget.make ~timeout:(-1.0) ());
  invalid (fun () -> Budget.make ~max_solutions:(-5) ())

(* ------------------------------------------------------------------ *)
(* Refill semantics: replenish / try_withdraw / the token bucket       *)
(* ------------------------------------------------------------------ *)

let test_replenish_standalone () =
  let b = Budget.make ~fuel:10 () in
  for _ = 1 to 5 do Budget.tick b done;
  check Alcotest.(option int) "fuel left after 5 ticks" (Some 5)
    (Budget.fuel_left b);
  Budget.replenish b 3;
  check Alcotest.(option int) "replenish adds" (Some 8) (Budget.fuel_left b);
  Budget.replenish ~cap:9 b 100;
  check Alcotest.(option int) "replenish clamps at cap" (Some 9)
    (Budget.fuel_left b);
  Budget.replenish ~cap:5 b 100;
  check Alcotest.(option int) "account above cap is left unchanged" (Some 9)
    (Budget.fuel_left b);
  (* fuel f permits f-1 further ticks, the f-th raises *)
  let ticks = ref 0 in
  (try
     while true do
       Budget.tick b;
       incr ticks
     done
   with Budget.Exhausted _ -> ());
  check Alcotest.int "replenished fuel is spendable" 8 !ticks;
  (* no-ops *)
  Budget.replenish Budget.unlimited 100;
  let t = Budget.make ~timeout:3600. () in
  Budget.replenish t 5;
  check Alcotest.(option int) "no fuel limit stays unlimited" None
    (Budget.fuel_left t)

let test_try_withdraw () =
  let b = Budget.make ~fuel:10 () in
  check Alcotest.bool "withdraw 4" true (Budget.try_withdraw b 4);
  check Alcotest.(option int) "6 left" (Some 6) (Budget.fuel_left b);
  check Alcotest.bool "overdraw refused" false (Budget.try_withdraw b 7);
  check Alcotest.(option int) "refusal leaves the account" (Some 6)
    (Budget.fuel_left b);
  check Alcotest.bool "exact drain" true (Budget.try_withdraw b 6);
  check Alcotest.bool "empty account refuses" false (Budget.try_withdraw b 1);
  check Alcotest.bool "zero always succeeds" true (Budget.try_withdraw b 0);
  check Alcotest.bool "unlimited always grants" true
    (Budget.try_withdraw Budget.unlimited 1_000_000);
  match Budget.try_withdraw b (-1) with
  | _ -> Alcotest.fail "negative withdrawal must be rejected"
  | exception Invalid_argument _ -> ()

let test_standalone_cancel () =
  let b = Budget.make ~fuel:1_000_000 () in
  Budget.cancel b;
  let ticks = ref 0 in
  (try
     for _ = 1 to 1000 do
       Budget.tick b;
       incr ticks
     done;
     Alcotest.fail "cancelled budget kept running"
   with Budget.Exhausted _ -> ());
  check Alcotest.bool "stopped within one deadline-check interval" true
    (!ticks <= Budget.deadline_check_interval);
  (* cancel on unlimited stays a no-op *)
  Budget.cancel Budget.unlimited;
  Budget.tick Budget.unlimited

(* [capped]: a local tick cap inside a budget, the exact-first
   maximality test's bound. *)
let spin b n = for _ = 1 to n do Budget.tick b done

let test_capped_trips () =
  check Alcotest.(option int) "within the cap" (Some 7)
    (Budget.capped Budget.unlimited 10 (fun b -> spin b 10; 7));
  check Alcotest.(option int) "tripped cap reports capped, no raise" None
    (Budget.capped Budget.unlimited 10 (fun b -> spin b 11; 7));
  check Alcotest.(option int) "cap 0 trips on the first tick" None
    (Budget.capped Budget.unlimited 0 (fun b -> spin b 1; 7));
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Budget.capped: negative cap") (fun () ->
      ignore (Budget.capped Budget.unlimited (-1) Fun.id));
  (* an exception from the region passes through untouched *)
  Alcotest.check_raises "region exceptions propagate" Exit (fun () ->
      ignore (Budget.capped Budget.unlimited 10 (fun _ -> raise Exit)))

let test_capped_outer_limits () =
  (* fuel: 20 units allow 19 ticks, so a 100-tick cap never trips first *)
  let b = Budget.make ~fuel:20 () in
  exhausts (fun () -> Budget.capped b 100 (fun b -> spin b 50));
  let b = Budget.make ~timeout:0.01 () in
  Unix.sleepf 0.02;
  exhausts (fun () ->
      Budget.capped b 1_000_000 (fun b ->
          spin b (2 * Budget.deadline_check_interval)));
  let b = Budget.make ~fuel:1_000_000 () in
  Budget.cancel b;
  exhausts (fun () ->
      Budget.capped b 1_000_000 (fun b ->
          spin b (2 * Budget.deadline_check_interval)));
  (* the cap is gone again after the region: the outer budget runs on *)
  let b = Budget.make ~fuel:1_000 () in
  ignore (Budget.capped b 5 (fun b -> spin b 6));
  spin b 100

let test_capped_charges_outer () =
  let b = Budget.make ~fuel:1_000 () in
  spin b 3;
  check Alcotest.(option unit) "completed region" (Some ())
    (Budget.capped b 10 (fun b -> spin b 4));
  check Alcotest.int "completed ticks charged" 7 (Budget.spent b);
  check Alcotest.(option unit) "tripped region" None
    (Budget.capped b 10 (fun b -> spin b 50));
  check Alcotest.int "tripped ticks charged, the tripping one included" 18
    (Budget.spent b);
  check Alcotest.(option int) "fuel drawn by both regions" (Some (1_000 - 18))
    (Budget.fuel_left b);
  Alcotest.check_raises "caps do not nest"
    (Invalid_argument "Budget.capped: nested cap") (fun () ->
      ignore (Budget.capped b 10 (fun b -> Budget.capped b 5 Fun.id)));
  check Alcotest.(option unit) "the cap is cleared after a rejected nesting"
    (Some ())
    (Budget.capped b 10 (fun b -> spin b 10))

module Token_bucket = Resource.Token_bucket

let test_token_bucket_basic () =
  let tb = Token_bucket.create ~now:0. ~capacity:10 ~rate:2. () in
  check Alcotest.int "starts full" 10 (Token_bucket.level ~now:0. tb);
  check Alcotest.bool "drain the bucket" true (Token_bucket.try_take ~now:0. tb 10);
  check Alcotest.bool "empty refuses" false (Token_bucket.try_take ~now:0. tb 1);
  check Alcotest.(float 1e-9) "2 tokens/s: 4 tokens in 2s" 2.
    (Token_bucket.seconds_until ~now:0. tb 4);
  check Alcotest.int "refilled after 1s" 2 (Token_bucket.level ~now:1. tb);
  check Alcotest.bool "elapsed time grants" true
    (Token_bucket.try_take ~now:2.5 tb 5);
  check Alcotest.int "capacity clamp" 10 (Token_bucket.level ~now:1000. tb);
  Token_bucket.give_back tb 50;
  check Alcotest.int "give_back clamps at capacity" 10
    (Token_bucket.level ~now:1000. tb)

let test_token_bucket_fractional_carry () =
  let tb = Token_bucket.create ~now:0. ~capacity:4 ~rate:0.5 () in
  ignore (Token_bucket.try_take ~now:0. tb 4);
  check Alcotest.int "half a token is not a token" 0
    (Token_bucket.level ~now:1. tb);
  check Alcotest.int "two halves are" 1 (Token_bucket.level ~now:2. tb);
  check Alcotest.int "carry accumulates across refreshes" 2
    (Token_bucket.level ~now:4. tb)

let test_token_bucket_zero_rate () =
  let tb = Token_bucket.create ~now:0. ~capacity:5 ~rate:0. () in
  ignore (Token_bucket.try_take ~now:0. tb 5);
  check Alcotest.int "never refills" 0 (Token_bucket.level ~now:1e9 tb);
  check Alcotest.bool "seconds_until is infinite" true
    (Token_bucket.seconds_until ~now:0. tb 1 = infinity);
  check Alcotest.bool "over capacity is unreachable" true
    (Token_bucket.seconds_until ~now:0.
       (Token_bucket.create ~now:0. ~capacity:5 ~rate:1. ())
       6
    = infinity);
  Token_bucket.give_back tb 3;
  check Alcotest.bool "give_back re-arms a zero-rate bucket" true
    (Token_bucket.try_take ~now:0. tb 3)

(* ------------------------------------------------------------------ *)
(* Fault injection: every exponential kernel stops promptly           *)
(* ------------------------------------------------------------------ *)

(* A deliberately hard instance set: big enough that any of the kernels
   below would burn far more than [tiny] steps if left alone. *)

let tiny () = Budget.make ~fuel:50 ()

let dense_graph = Hardness.Clique.random_graph ~seed:7 ~n:18 ~edge_prob:0.5

let big_data = Generator.random_graph ~seed:11 ~n:10 ~predicates:[ "q0"; "q1" ] ~m:60

let star_text children =
  (* { t0 OPTIONAL { c1 } ... OPTIONAL { cn } }: 2^children subtrees *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{ ?x0 p:q0 ?x1 ";
  for i = 1 to children do
    Buffer.add_string buf
      (Printf.sprintf "OPTIONAL { ?x0 p:q0 ?y%d . ?y%d p:q1 ?z%d } " i i i)
  done;
  Buffer.add_string buf "}";
  Buffer.contents buf

let parse text =
  match Sparql.Parser.parse text with Ok p -> p | Error e -> Alcotest.fail e

let star_pattern children = parse (star_text children)

let star_forest children = Wdpt.Pattern_forest.of_algebra (star_pattern children)

(* The same star plus a second tree under UNION. On one tree the
   domination width is bw (Proposition 5), polynomial; on two trees it
   still scans the GtG family of each of the star's 2^children
   subtrees. *)
let star_union_forest children =
  Wdpt.Pattern_forest.of_algebra
    (parse (Printf.sprintf "{ %s UNION { ?x0 p:q1 ?x1 } }" (star_text children)))

let test_treewidth_exact () =
  exhausts (fun () ->
      Graphtheory.Treewidth.exact ~budget:(tiny ()) ~limit:20 dense_graph)

let test_treewidth_bb () =
  exhausts (fun () ->
      Graphtheory.Treewidth.exact_branch_and_bound ~budget:(tiny ()) dense_graph)

let test_hom_fold () =
  let source = Workload.Query_families.kk 4 [ "a"; "b"; "c"; "d" ] in
  let target = Rdf.Graph.to_index (Generator.transitive_tournament ~n:10 ~pred:"r") in
  exhausts (fun () ->
      Tgraphs.Homomorphism.all ~budget:(tiny ()) ~source ~target ())

let test_encoded_hom_fold () =
  (* same hard instance as the term-level solver test, through the
     encoded join: it must tick the budget just as well, under its own
     phase label *)
  let source = Workload.Query_families.kk 4 [ "a"; "b"; "c"; "d" ] in
  let graph = Generator.transitive_tournament ~n:10 ~pred:"r" in
  let enc = Encoded.Encoded_graph.of_graph graph in
  let compiled = Encoded.Encoded_hom.compile source enc in
  match Encoded.Encoded_hom.all ~budget:(tiny ()) compiled with
  | _ -> Alcotest.fail "expected Budget.Exhausted"
  | exception Budget.Exhausted { phase; _ } ->
      check Alcotest.string "phase" "hom" phase

let test_cores () =
  let g =
    Tgraphs.Gtgraph.make
      (Workload.Query_families.kk 4 [ "a"; "b"; "c"; "d" ])
      Variable.Set.empty
  in
  exhausts (fun () -> Tgraphs.Cores.core ~budget:(tiny ()) g)

let test_csp_hom () =
  let a =
    Csp.Structure.make ~size:8
      ~relations:
        [ ("e", List.concat_map (fun i -> List.filter_map (fun j -> if i <> j then Some [| i; j |] else None) (List.init 8 Fun.id)) (List.init 8 Fun.id)) ]
      ()
  in
  exhausts (fun () -> Csp.Hom.count ~budget:(tiny ()) a a)

let test_csp_core () =
  let a =
    Csp.Structure.make ~size:6
      ~relations:
        [ ("e", List.concat_map (fun i -> List.filter_map (fun j -> if i <> j then Some [| i; j |] else None) (List.init 6 Fun.id)) (List.init 6 Fun.id)) ]
      ()
  in
  exhausts (fun () -> Csp.Core_of.core ~budget:(tiny ()) a)

let test_pebble_game () =
  let tree = Workload.Query_families.clique_child 4 in
  let sub = Wdpt.Subtree.full tree in
  let g =
    Tgraphs.Gtgraph.make (Wdpt.Subtree.pat sub) Variable.Set.empty
  in
  let graph = Generator.transitive_tournament ~n:10 ~pred:"r" in
  exhausts (fun () ->
      Pebble.Pebble_game.wins ~budget:(tiny ()) ~k:3 g ~mu:Variable.Map.empty graph)

let test_encoded_pebble_game () =
  (* same hard instance as the term-level kernel test, through the
     dictionary-encoded kernel: it must tick the budget just as well *)
  let tree = Workload.Query_families.clique_child 4 in
  let sub = Wdpt.Subtree.full tree in
  let g = Tgraphs.Gtgraph.make (Wdpt.Subtree.pat sub) Variable.Set.empty in
  let graph = Generator.transitive_tournament ~n:10 ~pred:"r" in
  let enc = Encoded.Encoded_graph.of_graph graph in
  (match
     Encoded.Encoded_pebble.wins ~budget:(tiny ()) ~k:3 g
       ~mu:Variable.Map.empty enc
   with
  | _ -> Alcotest.fail "expected Budget.Exhausted"
  | exception Budget.Exhausted { phase; _ } ->
      check Alcotest.string "phase" "pebble" phase)

let test_naive_eval () =
  exhausts (fun () ->
      Wdpt.Semantics.solutions ~budget:(tiny ()) (star_forest 8) big_data)

let test_domination_width () =
  exhausts (fun () ->
      Wd_core.Domination_width.of_forest ~budget:(tiny ()) (star_union_forest 8))

let test_pebble_eval () =
  (* the evaluation-wide cache over the encoded store *)
  exhausts (fun () ->
      Wd_core.Pebble_eval.solutions ~budget:(tiny ()) ~k:2 (star_forest 8) big_data)

let test_enumerate () =
  exhausts (fun () ->
      Wd_core.Enumerate.solutions ~budget:(tiny ()) (star_forest 8) big_data)

(* ------------------------------------------------------------------ *)
(* Engine degradation                                                  *)
(* ------------------------------------------------------------------ *)

let test_engine_degrades () =
  let pattern = star_pattern 6 in
  let graph = Generator.random_graph ~seed:3 ~n:5 ~predicates:[ "q0"; "q1" ] ~m:15 in
  (* fuel 1: the exact dw computation exhausts immediately, so the plan
     must fall back to the polynomial treewidth upper bound *)
  let plan = Wd_core.Engine.plan ~budget:(Budget.make ~fuel:1 ()) pattern in
  (match plan.Wd_core.Engine.width_source with
  | Wd_core.Engine.Fallback_upper_bound _ -> ()
  | Wd_core.Engine.Exact | Wd_core.Engine.From_hint _ ->
      Alcotest.fail "expected a degraded plan");
  let rendered = Fmt.str "%a" Wd_core.Engine.pp_plan plan in
  check Alcotest.bool "pp_plan surfaces the downgrade" true
    (Astring.String.is_infix ~affix:"upper bound" rendered);
  (* the degraded plan still computes the exact answers: pebble at any
     k >= dw is sound and complete *)
  let reference = Sparql.Eval.eval pattern graph in
  let degraded = Wd_core.Engine.solutions plan graph in
  check Alcotest.bool "degraded plan matches reference semantics" true
    (Sparql.Mapping.Set.equal reference degraded);
  (* an exact plan for the same query agrees on the width bound order *)
  let exact = Wd_core.Engine.plan pattern in
  check Alcotest.bool "fallback width dominates exact width" true
    (plan.Wd_core.Engine.domination_width
    >= exact.Wd_core.Engine.domination_width)

let test_classify_degrades () =
  let c =
    Wd_core.Classify.classify ~budget:(Budget.make ~fuel:1 ()) (star_pattern 6)
  in
  check Alcotest.bool "dw unknown" true (c.Wd_core.Classify.domination_width = None);
  match c.Wd_core.Classify.regime with
  | Wd_core.Classify.Width_unknown ub ->
      check Alcotest.bool "upper bound positive" true (ub >= 1)
  | _ -> Alcotest.fail "expected Width_unknown regime"

(* ------------------------------------------------------------------ *)
(* Property: a generous budget never changes results                   *)
(* ------------------------------------------------------------------ *)

let budget_transparency =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"generous budget = unbudgeted semantics"
       QCheck.(int_range 0 10_000)
       (fun seed ->
         let pattern =
           Workload.Query_families.random_wd_pattern ~seed ~triples:5 ~vars:5
             ~preds:2 ~depth:3 ~union:2
         in
         let graph =
           Generator.random_graph ~seed:(seed * 13 + 5) ~n:5
             ~predicates:[ "q0"; "q1" ] ~m:12
         in
         let forest = Wdpt.Pattern_forest.of_algebra pattern in
         let generous () = Budget.make ~fuel:max_int ~timeout:3600.0 () in
         let unbudgeted = Wdpt.Semantics.solutions forest graph in
         let budgeted =
           Wdpt.Semantics.solutions ~budget:(generous ()) forest graph
         in
         let planned =
           Wd_core.Engine.solutions ~budget:(generous ())
             (Wd_core.Engine.plan ~budget:(generous ()) pattern)
             graph
         in
         Sparql.Mapping.Set.equal unbudgeted budgeted
         && Sparql.Mapping.Set.equal unbudgeted planned))

(* ------------------------------------------------------------------ *)
(* Budgets inside the engine's evaluation                              *)
(* ------------------------------------------------------------------ *)

let social_pattern =
  Sparql.Parser.parse_exn
    "{ ?a p:knows ?b . OPTIONAL { ?b p:email ?m } OPTIONAL { ?a p:knows ?c } }"

let test_evaluation_exhaustion_phase () =
  let big = Generator.social ~seed:21 ~people:80 in
  let plan = Wd_core.Engine.plan social_pattern in
  match Wd_core.Engine.solutions ~budget:(Budget.make ~fuel:500 ()) plan big with
  | _ -> Alcotest.fail "a 500-tick budget should not cover this evaluation"
  | exception Budget.Exhausted { phase; spent } ->
      check Alcotest.bool "phase names an evaluation stage" true
        (List.mem phase [ "enumerate"; "pebble"; "hom" ]);
      check Alcotest.bool "spent is positive" true (spent > 0)

let test_evaluation_deadline_prompt () =
  let big = Generator.social ~seed:22 ~people:150 in
  let plan = Wd_core.Engine.plan social_pattern in
  let t0 = Unix.gettimeofday () in
  (match
     Wd_core.Engine.solutions ~budget:(Budget.make ~timeout:0.02 ()) plan big
   with
  | _ -> () (* finished under the deadline: nothing to time *)
  | exception Budget.Exhausted _ -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  check Alcotest.bool
    (Printf.sprintf "evaluation stopped promptly (%.3fs)" elapsed)
    true (elapsed < 5.0)

(* ------------------------------------------------------------------ *)
(* Deadline smoke: tier-1 proof that a hard query stops on time        *)
(* ------------------------------------------------------------------ *)

let test_deadline_smoke () =
  (* 2^22 subtrees: hours of work if the deadline were ignored *)
  let forest = star_union_forest 22 in
  let deadline = 0.2 in
  let start = Unix.gettimeofday () in
  (match
     Wd_core.Domination_width.of_forest
       ~budget:(Budget.make ~timeout:deadline ())
       forest
   with
  | _ -> Alcotest.fail "expected Budget.Exhausted"
  | exception Budget.Exhausted { phase; _ } ->
      check Alcotest.string "phase" "domination-width" phase);
  let elapsed = Unix.gettimeofday () -. start in
  check Alcotest.bool
    (Printf.sprintf "terminated within 2x the deadline (took %.3fs)" elapsed)
    true
    (elapsed < 2.0 *. deadline)

let test_one_tree_within_deadline () =
  (* the one-tree star of the smoke: bw by Proposition 5, no subtrees *)
  let deadline = 0.2 in
  let start = Unix.gettimeofday () in
  check Alcotest.int "dw(star 22) = 1" 1
    (Wd_core.Domination_width.of_forest
       ~budget:(Budget.make ~timeout:deadline ())
       (star_forest 22));
  let elapsed = Unix.gettimeofday () -. start in
  check Alcotest.bool
    (Printf.sprintf "finished within the deadline (took %.3fs)" elapsed)
    true (elapsed < deadline)

let () =
  Alcotest.run "resource"
    [
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick test_unlimited;
          Alcotest.test_case "fuel" `Quick test_fuel;
          Alcotest.test_case "max solutions" `Quick test_max_solutions;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "phases" `Quick test_phase;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "capped: trips without raising" `Quick
            test_capped_trips;
          Alcotest.test_case "capped: outer limits fire inside" `Quick
            test_capped_outer_limits;
          Alcotest.test_case "capped: ticks charged outside" `Quick
            test_capped_charges_outer;
        ] );
      ( "refill",
        [
          Alcotest.test_case "replenish standalone" `Quick
            test_replenish_standalone;
          Alcotest.test_case "try_withdraw" `Quick test_try_withdraw;
          Alcotest.test_case "standalone cancel" `Quick test_standalone_cancel;
          Alcotest.test_case "token bucket basics" `Quick
            test_token_bucket_basic;
          Alcotest.test_case "token bucket fractional carry" `Quick
            test_token_bucket_fractional_carry;
          Alcotest.test_case "token bucket zero rate" `Quick
            test_token_bucket_zero_rate;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "treewidth exact" `Quick test_treewidth_exact;
          Alcotest.test_case "treewidth branch&bound" `Quick test_treewidth_bb;
          Alcotest.test_case "homomorphism fold" `Quick test_hom_fold;
          Alcotest.test_case "encoded hom fold" `Quick test_encoded_hom_fold;
          Alcotest.test_case "tgraph cores" `Quick test_cores;
          Alcotest.test_case "csp homomorphism" `Quick test_csp_hom;
          Alcotest.test_case "csp core" `Quick test_csp_core;
          Alcotest.test_case "pebble game" `Quick test_pebble_game;
          Alcotest.test_case "encoded pebble game" `Quick test_encoded_pebble_game;
          Alcotest.test_case "naive eval" `Quick test_naive_eval;
          Alcotest.test_case "domination width" `Quick test_domination_width;
          Alcotest.test_case "pebble eval (cached)" `Quick test_pebble_eval;
          Alcotest.test_case "enumerate" `Quick test_enumerate;
          Alcotest.test_case "engine evaluation phase" `Quick
            test_evaluation_exhaustion_phase;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "engine falls back" `Quick test_engine_degrades;
          Alcotest.test_case "classify falls back" `Quick test_classify_degrades;
        ] );
      ("properties", [ budget_transparency ]);
      ( "deadline",
        [
          Alcotest.test_case "hard query stops on time" `Quick test_deadline_smoke;
          Alcotest.test_case "one-tree star finishes in time" `Quick
            test_one_tree_within_deadline;
          Alcotest.test_case "evaluation stops on time" `Quick
            test_evaluation_deadline_prompt;
        ] );
    ]
