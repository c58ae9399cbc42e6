(* Benchmark harness: regenerates every experiment of EXPERIMENTS.md.

   The paper (PODS'18) has no empirical section, so each experiment below is
   pinned to a theorem/example whose *shape* it demonstrates; see DESIGN.md
   §4 and EXPERIMENTS.md for the index. Run everything:

     dune exec bench/main.exe

   or a subset:

     dune exec bench/main.exe -- F1 T2 bechamel
*)

open Workload

let fast = ref false

(* ------------------------------------------------------------------ *)
(* JSON recording (--json / --json-out FILE)                           *)
(* ------------------------------------------------------------------ *)

let json_out : string option ref = ref None

(* (experiment, metric, value) in emission order; experiments that never
   call [record] simply don't appear in the JSON. *)
let records : (string * string * float) list ref = ref []

let record ~experiment ~metric value =
  records := (experiment, metric, value) :: !records

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no NaN: a NaN metric is written as the string "unmeasured". *)
let json_number v =
  if Float.is_nan v then "\"unmeasured\""
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

let write_json file =
  let ordered = List.rev !records in
  let experiment_ids =
    List.fold_left
      (fun acc (e, _, _) -> if List.mem e acc then acc else acc @ [ e ])
      [] ordered
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema_version\": 1,\n";
  Buffer.add_string buf "  \"pr\": \"pr10\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"host_cores\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"fast\": %b,\n" !fast);
  Buffer.add_string buf "  \"experiments\": {\n";
  List.iteri
    (fun i e ->
      Buffer.add_string buf (Printf.sprintf "    \"%s\": {\n" (json_escape e));
      Buffer.add_string buf "      \"metrics\": {\n";
      let metrics = List.filter (fun (e', _, _) -> e' = e) ordered in
      List.iteri
        (fun j (_, m, v) ->
          Buffer.add_string buf
            (Printf.sprintf "        \"%s\": %s%s\n" (json_escape m)
               (json_number v)
               (if j = List.length metrics - 1 then "" else ",")))
        metrics;
      Buffer.add_string buf "      }\n";
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n"
           (if i = List.length experiment_ids - 1 then "" else ",")))
    experiment_ids;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  (* self-validation: re-read and make sure the schema marker and every
     recorded experiment survived the round trip, so downstream tooling
     that diffs BENCH_*.json notices drift as a hard failure *)
  let ic = open_in file in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  let ok =
    Astring.String.is_infix ~affix:"\"schema_version\": 1" contents
    && List.for_all
         (fun e ->
           Astring.String.is_infix ~affix:(Printf.sprintf "\"%s\": {" e) contents)
         experiment_ids
  in
  if not ok then begin
    Fmt.epr "JSON self-validation failed for %s@." file;
    exit 1
  end;
  Fmt.pr "@.wrote %s (%d experiments, %d metrics)@." file
    (List.length experiment_ids) (List.length ordered)

(* ------------------------------------------------------------------ *)
(* Timing helpers                                                      *)
(* ------------------------------------------------------------------ *)

let time_once f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* Median of [runs] timings; at least one run. Short thunks are
   batched so every sample is long enough for the wall clock (and the
   scheduler) to resolve reliably — the first probe run sizes the
   batch, and per-iteration time is the sample total over the batch. *)
let time_median ?(runs = 3) f =
  let runs = max 1 runs in
  let result = ref None in
  let probe_r, probe_t = time_once f in
  result := Some probe_r;
  let batch =
    if probe_t >= 0.02 then 1
    else min 1000 (int_of_float (Float.ceil (0.02 /. Float.max probe_t 1e-6)))
  in
  let sample () =
    let r, t =
      time_once (fun () ->
          let r = ref (f ()) in
          for _ = 2 to batch do
            r := f ()
          done;
          !r)
    in
    result := Some r;
    t /. float_of_int batch
  in
  let timings =
    if batch = 1 then probe_t :: List.init (runs - 1) (fun _ -> sample ())
    else List.init runs (fun _ -> sample ())
  in
  let sorted = List.sort compare timings in
  (Option.get !result, List.nth sorted (List.length sorted / 2))

let header id title anchor =
  Fmt.pr "@.======================================================================@.";
  Fmt.pr "%s: %s@." id title;
  Fmt.pr "   paper anchor: %s@." anchor;
  Fmt.pr "======================================================================@."

let ms t = t *. 1000.

(* ------------------------------------------------------------------ *)
(* T1 — evaluator agreement and baseline cost                          *)
(* ------------------------------------------------------------------ *)

let t1 () =
  header "T1" "evaluator agreement & baseline cost"
    "Section 2 semantics; Lemma 1 (wdPT characterisation)";
  Fmt.pr "random well-designed patterns × random graphs; all three evaluators@.";
  Fmt.pr "must agree; wdPF-based evaluation should beat the algebra baseline.@.@.";
  Fmt.pr "%4s %8s %6s %8s %7s %12s %12s %12s@." "seed" "triples" "|G|"
    "answers" "agree" "algebra(ms)" "naive(ms)" "pebble(ms)";
  let seeds = if !fast then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let agree_all = ref true in
  let tot_ref = ref 0.0 and tot_naive = ref 0.0 and tot_pebble = ref 0.0 in
  List.iter
    (fun seed ->
      let p =
        Query_families.random_wd_pattern ~seed ~triples:7 ~vars:7 ~preds:2
          ~depth:3 ~union:2
      in
      let g =
        Rdf.Generator.random_graph ~seed:(seed * 11) ~n:8
          ~predicates:[ "q0"; "q1" ] ~m:30
      in
      let forest = Wdpt.Pattern_forest.of_algebra p in
      let dw = Wd_core.Domination_width.of_forest forest in
      let reference, t_ref = time_median (fun () -> Sparql.Eval.eval p g) in
      let naive, t_naive = time_median (fun () -> Wdpt.Semantics.solutions forest g) in
      let pebble, t_pebble =
        time_median (fun () -> Wd_core.Pebble_eval.solutions ~k:dw forest g)
      in
      let agree =
        Sparql.Mapping.Set.equal reference naive
        && Sparql.Mapping.Set.equal reference pebble
      in
      agree_all := !agree_all && agree;
      tot_ref := !tot_ref +. t_ref;
      tot_naive := !tot_naive +. t_naive;
      tot_pebble := !tot_pebble +. t_pebble;
      Fmt.pr "%4d %8d %6d %8d %7b %12.3f %12.3f %12.3f@." seed
        (Sparql.Algebra.size p) (Rdf.Graph.cardinal g)
        (Sparql.Mapping.Set.cardinal reference)
        agree (ms t_ref) (ms t_naive) (ms t_pebble))
    seeds;
  record ~experiment:"T1" ~metric:"algebra_total_ms" (ms !tot_ref);
  record ~experiment:"T1" ~metric:"naive_total_ms" (ms !tot_naive);
  record ~experiment:"T1" ~metric:"pebble_total_ms" (ms !tot_pebble);
  record ~experiment:"T1" ~metric:"agree" (if !agree_all then 1.0 else 0.0);
  Fmt.pr "@.all evaluators agree: %b@." !agree_all

(* ------------------------------------------------------------------ *)
(* F1 — the tractability gap on F_k (Example 5)                        *)
(* ------------------------------------------------------------------ *)

let f1 () =
  header "F1" "tractability gap on the paper's F_k family"
    "Theorem 1 + Examples 4/5: dw(F_k) = 1, so 2 pebbles always suffice";
  Fmt.pr "instance: anchored random tournament (n=%d); the optional clique@."
    (if !fast then 20 else 32);
  Fmt.pr "branch K_k forces the naive evaluator into a clique-like search@.";
  Fmt.pr "while the 2-pebble algorithm stays polynomial.@.@.";
  let n = if !fast then 20 else 32 in
  Fmt.pr "the engine column enumerates every answer, as `wdsparql eval`@.";
  Fmt.pr "does: each child join searches for a first extension under the@.";
  Fmt.pr "cap |adom|^2 and asks the 2-pebble game past it (joins: runs/pebble@.";
  Fmt.pr "answers).@.";
  Fmt.pr "Reaching the larger subtrees still joins the clique child wherever@.";
  Fmt.pr "the relaxation cannot refute it: enumeration pays the search the@.";
  Fmt.pr "membership test of Theorem 1 avoids.@.@.";
  Fmt.pr "%4s %6s %12s %12s %12s %10s %8s %7s@." "k" "answer" "naive(ms)"
    "pebble(ms)" "engine(ms)" "joins" "ratio" "agree";
  let ks = if !fast then [ 2; 4; 6; 8; 9 ] else [ 2; 4; 6; 8; 9; 10; 11; 12; 13 ] in
  let stop = ref false in
  let agree_all = ref true in
  let engine forest g mu () =
    let cache = Wd_core.Plan_cache.create () in
    let answers =
      Wd_core.Enumerate.solutions ~maximality:(`Pebble 1) ~optimize:`On ~cache
        forest g
    in
    (Sparql.Mapping.Set.mem mu answers,
     (Wd_core.Plan_cache.stats cache).Wd_core.Plan_cache.joins)
  in
  let pp_tests (t : Wd_core.Plan_cache.joins) =
    Printf.sprintf "%d/%d" t.runs t.pebble_answers
  in
  List.iter
    (fun k ->
      if not !stop then begin
        let forest = Query_families.f_k k in
        let g, mu = Graph_families.tournament_instance ~seed:1 ~n in
        let naive_ans, t_naive =
          time_median ~runs:1 (fun () -> Wdpt.Semantics.check forest g mu)
        in
        let pebble_ans, t_pebble =
          time_median ~runs:3 (fun () -> Wd_core.Pebble_eval.check ~k:1 forest g mu)
        in
        let (engine_ans, tests), t_engine =
          time_median ~runs:3 (engine forest g mu)
        in
        let agree = naive_ans = pebble_ans && naive_ans = engine_ans in
        agree_all := !agree_all && agree;
        Fmt.pr "%4d %6b %12.3f %12.3f %12.3f %10s %8.1f %7b@." k naive_ans
          (ms t_naive) (ms t_pebble) (ms t_engine) (pp_tests tests)
          (t_naive /. t_pebble) agree;
        record ~experiment:"F1" ~metric:(Printf.sprintf "k%d.naive_ms" k)
          (ms t_naive);
        record ~experiment:"F1" ~metric:(Printf.sprintf "k%d.pebble_ms" k)
          (ms t_pebble);
        record ~experiment:"F1" ~metric:(Printf.sprintf "k%d.engine_ms" k)
          (ms t_engine);
        record ~experiment:"F1"
          ~metric:(Printf.sprintf "k%d.engine_pebble_answers" k)
          (float_of_int tests.Wd_core.Plan_cache.pebble_answers);
        if t_naive > 5.0 then stop := true
      end)
    ks;
  (* The cap grows with the candidate domain of the clique child's game
     (the whole dictionary for F_k's unconstrained variables, the class
     for F_k_typed's), and so does the game's own run. *)
  if not !fast then begin
    Fmt.pr "@.large dictionary: the instance padded with m unrelated terms@.";
    Fmt.pr "(u:i p:s u:i+1); 'typed' runs F_k_typed with c:T = the@.";
    Fmt.pr "tournament nodes, whose game (and cap) range over the class.@.@.";
    Fmt.pr "%4s %6s %6s %6s %12s %10s %7s@." "k" "typed" "m" "terms"
      "engine(ms)" "joins" "agree";
    List.iter
      (fun (k, typed, m) ->
        let g0, mu = Graph_families.tournament_instance ~seed:1 ~n in
        let u i = Rdf.Term.iri (Printf.sprintf "u:%d" i) in
        let g =
          Rdf.Graph.union g0
            (Rdf.Graph.of_triples
               (List.init m (fun i -> Rdf.Triple.make (u i) (Rdf.Term.iri "p:s") (u (i + 1)))
               @
               if typed then
                 List.init n (fun i ->
                     Rdf.Triple.make (Graph_families.tnode i) (Rdf.Term.iri "p:type")
                       Query_families.class_t)
               else []))
        in
        let forest =
          if typed then Query_families.f_k_typed k else Query_families.f_k k
        in
        let naive_ans = Wdpt.Semantics.check forest g mu in
        let (engine_ans, tests), t_engine =
          time_median ~runs:1 (engine forest g mu)
        in
        let agree = naive_ans = engine_ans in
        agree_all := !agree_all && agree;
        Fmt.pr "%4d %6b %6d %6d %12.3f %10s %7b@." k typed m
          (Rdf.Dictionary.size (Rdf.Dictionary.of_graph g))
          (ms t_engine) (pp_tests tests) agree;
        record ~experiment:"F1"
          ~metric:
            (Printf.sprintf "padded.k%d%s.m%d.engine_ms" k
               (if typed then ".typed" else "")
               m)
          (ms t_engine))
      [ (10, false, 0); (10, false, 1000); (10, true, 0); (10, true, 1000) ]
  end;
  record ~experiment:"F1" ~metric:"agree" (if !agree_all then 1.0 else 0.0);
  Fmt.pr "@.shape: for small k the clique branch embeds easily and the naive@.";
  Fmt.pr "homomorphism test wins (the relaxation has constant-factor@.";
  Fmt.pr "overhead); once K_k stops embedding into the tournament (around@.";
  Fmt.pr "k ≈ 2·log2 n) the naive search explodes exponentially while the@.";
  Fmt.pr "2-pebble algorithm keeps growing polynomially — the crossover the@.";
  Fmt.pr "dichotomy predicts. The engine's joins follow the cheaper side@.";
  Fmt.pr "(exact while the search is small, the game as refuter once it@.";
  Fmt.pr "outgrows the cap). Answers always agree (dw = 1): %b.@." !agree_all

(* ------------------------------------------------------------------ *)
(* F2 — UNION-free frontier: clique_child                              *)
(* ------------------------------------------------------------------ *)

let f2 () =
  header "F2" "the frontier on UNION-free patterns (clique_child)"
    "Corollary 1 + §3.2: bw(clique_child k) = k−1 — unbounded width family";
  Fmt.pr "pebble(2) is polynomial but incomplete; pebble(bw) is exact but its@.";
  Fmt.pr "cost grows exponentially with the width — there is no free lunch@.";
  Fmt.pr "beyond the frontier (Theorem 2).@.@.";
  let n = if !fast then 10 else 12 in
  Fmt.pr "%4s %6s %12s %10s %14s %10s %10s@." "k" "naive" "naive(ms)"
    "pebble2" "pebble2(ms)" "pebble_bw" "bw(ms)";
  List.iter
    (fun k ->
      let forest = [ Query_families.clique_child k ] in
      let g, mu = Graph_families.tournament_instance ~seed:3 ~n in
      let naive_ans, t_naive =
        time_median (fun () -> Wdpt.Semantics.check forest g mu)
      in
      let p2_ans, t_p2 =
        time_median (fun () -> Wd_core.Pebble_eval.check ~k:1 forest g mu)
      in
      let bw = k - 1 in
      let pbw_ans, t_pbw =
        time_median ~runs:1 (fun () -> Wd_core.Pebble_eval.check ~k:bw forest g mu)
      in
      Fmt.pr "%4d %6b %12.3f %10b %14.3f %10b %10.3f@." k naive_ans
        (ms t_naive) p2_ans (ms t_p2) pbw_ans (ms t_pbw))
    (if !fast then [ 2; 3; 4 ] else [ 2; 3; 4; 5 ]);
  (* the fooling instance: 2 pebbles give the wrong answer *)
  let forest = [ Query_families.clique_child 3 ] in
  let g, mu = Graph_families.cyclic_triangles_instance ~m:4 in
  let naive_ans = Wdpt.Semantics.check forest g mu in
  let p2_ans = Wd_core.Pebble_eval.check ~k:1 forest g mu in
  let p3_ans = Wd_core.Pebble_eval.check ~k:2 forest g mu in
  Fmt.pr "@.fooling instance (directed 3-cycles, no transitive triangle):@.";
  Fmt.pr "  naive=%b  pebble(2)=%b  pebble(3)=%b@." naive_ans p2_ans p3_ans;
  Fmt.pr "  -> 2 pebbles are incomplete exactly as Prop. 3 predicts@."

(* ------------------------------------------------------------------ *)
(* T2 — width landscape                                                *)
(* ------------------------------------------------------------------ *)

let t2 () =
  header "T2" "width landscape across query families"
    "Definitions 2-3, Proposition 5, §3.1 (lt => bounded dw, not conversely)";
  Fmt.pr "%-22s %6s %5s %5s %5s %18s@." "family" "nodes" "bw" "lt" "dw"
    "prop5 (dw=bw)";
  let row name forest =
    (* dw by the GtG scan of [profile]: [of_forest] is bw on one tree, so
       the prop5 column would compare bw with itself *)
    let dw =
      List.fold_left
        (fun acc r -> max acc r.Wd_core.Domination_width.level)
        1
        (Wd_core.Domination_width.profile forest)
    in
    let lt = Wd_core.Local_tractability.width_of_forest forest in
    let bw, prop5 =
      match forest with
      | [ tree ] ->
          let bw = Wd_core.Branch_treewidth.of_tree tree in
          (string_of_int bw, if bw = dw then "ok" else "VIOLATED")
      | _ -> ("-", "n/a (union)")
    in
    Fmt.pr "%-22s %6d %5s %5d %5d %18s@." name
      (Wdpt.Pattern_forest.size forest) bw lt dw prop5
  in
  row "path(6)" [ Query_families.path_query 6 ];
  row "star(6)" [ Query_families.star_query 6 ];
  row "comb(4)" [ Query_families.comb_query 4 ];
  List.iter
    (fun k -> row (Printf.sprintf "T'_%d" k) [ Query_families.t_prime_k k ])
    [ 2; 3; 4; 5; 6 ];
  List.iter
    (fun k -> row (Printf.sprintf "F_%d" k) (Query_families.f_k k))
    [ 2; 3; 4; 5; 6 ];
  List.iter
    (fun k -> row (Printf.sprintf "clique_child(%d)" k) [ Query_families.clique_child k ])
    [ 2; 3; 4; 5 ];
  List.iter
    (fun (r, c) ->
      row (Printf.sprintf "grid(%dx%d)" r c) [ Query_families.grid_query ~rows:r ~cols:c ])
    [ (2, 2); (2, 4); (3, 3); (3, 6) ];
  Fmt.pr "@.shape: lt grows with k on T'_k and F_k while dw stays 1 (local@.";
  Fmt.pr "tractability is strictly weaker); clique_child/grid have growing dw.@."

(* ------------------------------------------------------------------ *)
(* F3 — data scaling of the Theorem-1 algorithm                        *)
(* ------------------------------------------------------------------ *)

let f3 () =
  header "F3" "data scaling |G| of naive vs pebble on F_9"
    "Theorem 1: for fixed k the pebble algorithm is polynomial in |G|";
  let k = 9 in
  let forest = Query_families.f_k k in
  Fmt.pr "query: F_%d (dw = 1); instance: anchored tournaments of growing n@.@." k;
  Fmt.pr "%6s %8s %12s %12s@." "n" "|G|" "naive(ms)" "pebble(ms)";
  let sizes = if !fast then [ 8; 12; 16; 24 ] else [ 8; 12; 16; 24; 32; 48 ] in
  let points = ref [] in
  List.iter
    (fun n ->
      let g, mu = Graph_families.tournament_instance ~seed:2 ~n in
      let _, t_naive = time_median (fun () -> Wdpt.Semantics.check forest g mu) in
      let _, t_pebble =
        time_median (fun () -> Wd_core.Pebble_eval.check ~k:1 forest g mu)
      in
      points := (float_of_int (Rdf.Graph.cardinal g), t_pebble) :: !points;
      Fmt.pr "%6d %8d %12.3f %12.3f@." n (Rdf.Graph.cardinal g) (ms t_naive)
        (ms t_pebble))
    sizes;
  (* crude log-log slope for the pebble algorithm *)
  (match !points with
  | (x2, y2) :: _ when List.length !points >= 2 ->
      let x1, y1 = List.nth !points (List.length !points - 1) in
      let slope = (log y2 -. log y1) /. (log x2 -. log x1) in
      Fmt.pr "@.pebble log-log slope ≈ %.2f (low-degree polynomial in |G|)@." slope
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* T3 — CLIQUE through the hardness reduction                          *)
(* ------------------------------------------------------------------ *)

let t3 () =
  header "T3" "p-CLIQUE via p-co-wdEVAL"
    "Theorem 2 / Lemma 2 / §4.2 (fpt-reduction, gadget size g(k)·|H|^O(1))";
  Fmt.pr "%4s %4s %6s %10s %10s %10s %12s %7s@." "k" "n" "edges" "gadget|V|"
    "gadget|B|" "answer" "eval(ms)" "agree";
  let cases =
    if !fast then [ (3, 6, 0.4, 1); (3, 8, 0.3, 2) ]
    else [ (3, 6, 0.4, 1); (3, 8, 0.3, 2); (3, 10, 0.3, 3); (3, 12, 0.25, 4); (4, 6, 0.6, 5) ]
  in
  List.iter
    (fun (k, n, prob, seed) ->
      let h = Hardness.Clique.random_graph ~seed ~n ~edge_prob:prob in
      match Hardness.Reduction.build ~k ~h with
      | Error e -> Fmt.pr "%4d %4d  construction failed: %s@." k n e
      | Ok inst ->
          let answer, t =
            time_median ~runs:1 (fun () ->
                not
                  (Wdpt.Semantics.check inst.Hardness.Reduction.forest
                     inst.Hardness.Reduction.graph inst.Hardness.Reduction.mu))
          in
          let brute = Hardness.Clique.has_clique h k in
          Fmt.pr "%4d %4d %6d %10d %10d %10b %12.2f %7b@." k n
            (Graphtheory.Ugraph.m h)
            inst.Hardness.Reduction.stats.Hardness.Grohe.new_vars
            inst.Hardness.Reduction.stats.Hardness.Grohe.triples answer (ms t)
            (answer = brute))
    cases;
  Fmt.pr "@.shape: gadget size is polynomial in |H| for fixed k, and the@.";
  Fmt.pr "answers match brute force — evaluating unbounded-width queries is@.";
  Fmt.pr "at least as hard as CLIQUE.@."

(* ------------------------------------------------------------------ *)
(* T4 — quality of the pebble relaxation                               *)
(* ------------------------------------------------------------------ *)

let t4 () =
  header "T4" "pebble relaxation quality on random instances"
    "Propositions 2-3: sound always, exact iff ctw ≤ k−1";
  let samples = if !fast then 150 else 400 in
  let buckets = Hashtbl.create 4 in
  let record key field =
    let agree, total, false_pos =
      Option.value ~default:(0, 0, 0) (Hashtbl.find_opt buckets key)
    in
    Hashtbl.replace buckets key
      (match field with
      | `Agree -> (agree + 1, total + 1, false_pos)
      | `False_pos -> (agree, total + 1, false_pos + 1))
  in
  let run_instance s graph mu =
    let ctw = Tgraphs.Cores.ctw s in
    let bucket = if ctw <= 1 then "ctw ≤ 1 (exact zone)" else "ctw ≥ 2" in
    let hom = Tgraphs.Gtgraph.maps_to_graph s ~mu graph in
    let pebble = Pebble.Pebble_game.wins ~k:2 s ~mu graph in
    if hom && not pebble then
      failwith "false negative: the relaxation must over-approximate";
    if hom = pebble then record bucket `Agree else record bucket `False_pos
  in
  (* unstructured instances: mostly land in the exact zone *)
  for seed = 1 to samples do
    let s = Testutil_lite.gtgraph_of_seed seed in
    let graph = Testutil_lite.graph_of_seed (seed + 1) in
    if not (Rdf.Iri.Set.is_empty (Rdf.Graph.dom graph)) then
      run_instance s graph (Testutil_lite.mu_for s graph seed)
  done;
  (* structured instances with ctw = 2: the triangle pattern K_3 against
     random digraphs and against cycle unions (where 2-consistency is
     known to over-approximate) *)
  let k3 =
    Tgraphs.Gtgraph.make
      (Query_families.kk 3 [ "o1"; "o2"; "o3" ])
      Rdf.Variable.Set.empty
  in
  for seed = 1 to samples / 4 do
    let graph = Rdf.Generator.random_digraph ~seed ~n:7 ~m:12 ~pred:"r" in
    run_instance k3 graph Rdf.Variable.Map.empty
  done;
  List.iter
    (fun n -> run_instance k3 (Rdf.Generator.cycle ~n ~pred:"r") Rdf.Variable.Map.empty)
    [ 3; 4; 5; 6; 7 ];
  Fmt.pr "%-22s %9s %9s %11s@." "bucket (k = 2)" "samples" "agree" "false-pos";
  Hashtbl.iter
    (fun key (agree, total, false_pos) ->
      Fmt.pr "%-22s %9d %9d %11d@." key total agree false_pos)
    buckets;
  Fmt.pr "@.shape: zero disagreements in the ctw ≤ 1 bucket (Prop. 3), no@.";
  Fmt.pr "false negatives anywhere (soundness of the relaxation).@."

(* ------------------------------------------------------------------ *)
(* F4 — treewidth substrate                                            *)
(* ------------------------------------------------------------------ *)

let f4 () =
  header "F4" "treewidth: exact DP vs elimination heuristics"
    "Section 2 (treewidth machinery the width measures rest on)";
  Fmt.pr "%4s %10s %10s %10s %12s@." "n" "avg exact" "avg minfill" "max gap"
    "exact(ms)";
  let sizes = if !fast then [ 8; 10; 12 ] else [ 8; 10; 12; 14; 16 ] in
  List.iter
    (fun n ->
      let trials = 12 in
      let sum_exact = ref 0 and sum_heur = ref 0 and max_gap = ref 0 in
      let _, t =
        time_once (fun () ->
            for seed = 1 to trials do
              let g = Testutil_lite.ugraph_of_seed ~n seed in
              let exact = Graphtheory.Treewidth.treewidth g in
              let _, heur = Graphtheory.Treewidth.min_fill_order g in
              sum_exact := !sum_exact + exact;
              sum_heur := !sum_heur + heur;
              max_gap := max !max_gap (heur - exact)
            done)
      in
      Fmt.pr "%4d %10.2f %10.2f %10d %12.2f@." n
        (float_of_int !sum_exact /. float_of_int trials)
        (float_of_int !sum_heur /. float_of_int trials)
        !max_gap
        (ms t /. float_of_int trials))
    sizes;
  Fmt.pr "@.shape: min-fill tracks the exact value closely; exact cost grows@.";
  Fmt.pr "exponentially in n (2^n DP) — fine for query-sized graphs.@."

(* ------------------------------------------------------------------ *)
(* T5 — translation sizes                                              *)
(* ------------------------------------------------------------------ *)

let t5 () =
  header "T5" "wdpf translation sizes"
    "Section 2.1 (polynomial translation to NR-normal-form pattern forests)";
  Fmt.pr "%6s %9s %7s %7s %9s %14s@." "seed" "triples" "trees" "nodes"
    "max-depth" "translate(ms)";
  let seeds = if !fast then [ 1; 2; 3; 4 ] else [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  List.iter
    (fun seed ->
      let p =
        Query_families.random_wd_pattern ~seed ~triples:24 ~vars:20 ~preds:3
          ~depth:4 ~union:3
      in
      let forest, t = time_median (fun () -> Wdpt.Pattern_forest.of_algebra p) in
      let depth =
        List.fold_left (fun acc tr -> max acc (Wdpt.Pattern_tree.depth tr)) 0 forest
      in
      Fmt.pr "%6d %9d %7d %7d %9d %14.3f@." seed (Sparql.Algebra.size p)
        (List.length forest)
        (Wdpt.Pattern_forest.size forest)
        depth (ms t))
    seeds;
  Fmt.pr "@.shape: node counts stay linear in the pattern; translation time is@.";
  Fmt.pr "far below a millisecond per query.@."

(* ------------------------------------------------------------------ *)
(* F5 — answer enumeration scaling                                     *)
(* ------------------------------------------------------------------ *)

let f5 () =
  header "F5" "answer enumeration over growing data"
    "Lemma 1 (subtree semantics drives enumeration)";
  let query =
    Sparql.Parser.parse_exn
      "{ ?a p:knows ?b . OPTIONAL { ?b p:worksAt ?c } OPTIONAL { ?b p:email ?m } }"
  in
  let forest = Wdpt.Pattern_forest.of_algebra query in
  Fmt.pr "query: optional profile over the social generator@.@.";
  Fmt.pr "%8s %8s %9s %12s %14s@." "people" "|G|" "answers" "enum(ms)"
    "µs/answer";
  let sizes = if !fast then [ 50; 100; 200 ] else [ 50; 100; 200; 400; 800 ] in
  List.iter
    (fun people ->
      let g = Rdf.Generator.social ~seed:7 ~people in
      let sols, t = time_median (fun () -> Wdpt.Semantics.solutions forest g) in
      let count = Sparql.Mapping.Set.cardinal sols in
      Fmt.pr "%8d %8d %9d %12.2f %14.2f@." people (Rdf.Graph.cardinal g) count
        (ms t)
        (if count = 0 then 0. else t *. 1e6 /. float_of_int count))
    sizes;
  Fmt.pr "@.shape: near output-linear growth — cost per answer stays flat.@."

(* ------------------------------------------------------------------ *)
(* F6 — shared-prefix enumerator vs baseline                           *)
(* ------------------------------------------------------------------ *)

let f6 () =
  header "F6" "answer enumeration: baseline vs shared-prefix enumerator"
    "Lemma 1 + Theorem 1 (this library's optimised enumerator)";
  Fmt.pr "%-26s %8s %9s %12s %12s %8s@." "query" "people" "answers"
    "baseline(ms)" "shared(ms)" "agree";
  let queries =
    [
      ("profile (2 OPTs)",
       "{ ?a p:knows ?b . OPTIONAL { ?b p:worksAt ?c } OPTIONAL { ?b p:email ?m } }");
      ("join root + 4 OPTs",
       "{ ?a p:knows ?b . ?b p:knows ?c . OPTIONAL { ?a p:email ?m1 } \
        OPTIONAL { ?b p:email ?m2 } OPTIONAL { ?c p:email ?m3 } \
        OPTIONAL { ?c p:worksAt ?w } }");
      ("join root + 5 OPTs",
       "{ ?a p:knows ?b . ?b p:knows ?c . OPTIONAL { ?a p:email ?m1 } \
        OPTIONAL { ?b p:email ?m2 } OPTIONAL { ?c p:email ?m3 } \
        OPTIONAL { ?c p:worksAt ?w } OPTIONAL { ?c p:livesIn ?t } }");
    ]
  in
  let sizes = if !fast then [ 100 ] else [ 100; 400 ] in
  List.iter
    (fun people ->
      let g = Rdf.Generator.social ~seed:5 ~people in
      List.iter
        (fun (name, src) ->
          let forest =
            Wdpt.Pattern_forest.of_algebra (Sparql.Parser.parse_exn src)
          in
          let base, t_base =
            time_median (fun () -> Wdpt.Semantics.solutions forest g)
          in
          let shared, t_shared =
            time_median (fun () -> Wd_core.Enumerate.solutions forest g)
          in
          Fmt.pr "%-26s %8d %9d %12.2f %12.2f %8b@." name people
            (Sparql.Mapping.Set.cardinal base)
            (ms t_base) (ms t_shared)
            (Sparql.Mapping.Set.equal base shared))
        queries)
    sizes;
  Fmt.pr "@.shape: with c optional children the baseline re-joins the shared@.";
  Fmt.pr "root pattern up to 2^c times, so the shared-prefix walk pulls ahead@.";
  Fmt.pr "as fan-out grows (1.3x at 4 OPTs, 1.6x at 5 here); on tiny queries@.";
  Fmt.pr "its bookkeeping makes it a wash. Answer sets always agree.@."

(* ------------------------------------------------------------------ *)
(* T6 — containment                                                    *)
(* ------------------------------------------------------------------ *)

let t6 () =
  header "T6" "containment: Chandra–Merlin core + randomised refutation"
    "related machinery: Pichler & Skritek PODS'14 (containment is Πᵖ₂)";
  (* CM on the existential fragment *)
  let gt src x =
    let p = Sparql.Parser.parse_exn src in
    Tgraphs.Gtgraph.make
      (Tgraphs.Tgraph.of_triples (Sparql.Algebra.triples p))
      (Rdf.Variable.Set.of_list (List.map Rdf.Variable.of_string x))
  in
  let queries =
    [
      ("3-path", gt "{ ?x p:r ?a . ?a p:r ?b . ?b p:r ?c }" [ "x" ]);
      ("2-path", gt "{ ?x p:r ?a . ?a p:r ?b }" [ "x" ]);
      ("1-edge", gt "{ ?x p:r ?a }" [ "x" ]);
      ("out-2-star", gt "{ ?x p:r ?a . ?x p:r ?b }" [ "x" ]);
      ("triangle", gt "{ ?x p:r ?a . ?a p:r ?b . ?x p:r ?b }" [ "x" ]);
    ]
  in
  Fmt.pr "Chandra–Merlin matrix (row ⊆ column?):@.";
  Fmt.pr "%-12s" "";
  List.iter (fun (n, _) -> Fmt.pr "%-12s" n) queries;
  Fmt.pr "@.";
  List.iter
    (fun (n1, q1) ->
      Fmt.pr "%-12s" n1;
      List.iter
        (fun (_, q2) ->
          Fmt.pr "%-12s" (if Wd_core.Containment.cq_contained q1 q2 then "yes" else "-"))
        queries;
      Fmt.pr "@.")
    queries;
  (* refutation on OPT patterns *)
  let parse = Sparql.Parser.parse_exn in
  let pairs =
    [
      ("OPT vs AND",
       parse "{ ?x p:a ?y . OPTIONAL { ?y p:b ?z } }",
       parse "{ ?x p:a ?y . ?y p:b ?z }");
      ("AND vs OPT",
       parse "{ ?x p:a ?y . ?y p:b ?z }",
       parse "{ ?x p:a ?y . OPTIONAL { ?y p:b ?z } }");
      ("self",
       parse "{ ?x p:a ?y . OPTIONAL { ?y p:b ?z } }",
       parse "{ ?x p:a ?y . OPTIONAL { ?y p:b ?z } }");
      ("extra OPT arm",
       parse "{ ?x p:a ?y }",
       parse "{ ?x p:a ?y . OPTIONAL { ?y p:b ?z } }");
    ]
  in
  Fmt.pr "@.randomised refutation on OPT patterns:@.";
  List.iter
    (fun (name, p1, p2) ->
      let verdict, t =
        time_median ~runs:1 (fun () -> Wd_core.Containment.refute ~attempts:100 p1 p2)
      in
      Fmt.pr "  %-14s P1 ⊆ P2 %s  (%.1f ms)@." name
        (match verdict with
        | Some _ -> "REFUTED (counterexample found)"
        | None -> "not refuted")
        (ms t))
    pairs;
  Fmt.pr "@.shape: 'AND vs OPT' and 'extra OPT arm' are genuinely contained@.";
  Fmt.pr "(never refuted); 'OPT vs AND' is refuted immediately — the@.";
  Fmt.pr "canonical frozen instances catch the missing-optional case.@."

(* ------------------------------------------------------------------ *)
(* A2–A3 — ablations of this implementation's design choices           *)
(* ------------------------------------------------------------------ *)

let a2 () =
  header "A2" "ablation: unary candidate pruning in the pebble game"
    "DESIGN.md: k-consistency with pre-filtered candidate sets";
  (* A sparse instance where pruning bites: the anchor node has only 3
     r-successors, so the unary constraint (?y, r, ?o1) cuts o1's
     candidate set from the whole domain to 3 values. *)
  let nodes = if !fast then 30 else 60 in
  let graph =
    let anchor = Rdf.Term.iri "n:anchor" in
    let node i = Rdf.Term.iri (Printf.sprintf "d:%d" i) in
    let r = Rdf.Term.iri "p:r" and p = Rdf.Term.iri "p:p" in
    let state = Random.State.make [| 42; nodes |] in
    let triples = ref [ Rdf.Triple.make anchor p (node 0) ] in
    for i = 1 to 3 do
      triples := Rdf.Triple.make (node 0) r (node i) :: !triples
    done;
    for _ = 1 to 6 * nodes do
      let i = 1 + Random.State.int state (nodes - 1) in
      let j = 1 + Random.State.int state (nodes - 1) in
      if i <> j then triples := Rdf.Triple.make (node i) r (node j) :: !triples
    done;
    Rdf.Graph.of_triples !triples
  in
  let mu =
    Sparql.Mapping.of_list
      [
        (Rdf.Variable.of_string "x", Rdf.Iri.of_string "n:anchor");
        (Rdf.Variable.of_string "y", Rdf.Iri.of_string "d:0");
      ]
  in
  let tree = Query_families.clique_child 4 in
  let subtree = Wdpt.Subtree.root_only tree in
  let s =
    Tgraphs.Tgraph.union (Wdpt.Subtree.pat subtree) (Wdpt.Pattern_tree.pat tree 1)
  in
  let gtg = Tgraphs.Gtgraph.make s (Wdpt.Subtree.vars subtree) in
  Fmt.pr "%-14s %8s %12s %16s@." "pruning" "answer" "time(ms)" "maps explored";
  List.iter
    (fun (name, prune_unary) ->
      Pebble.Pebble_game.reset_stats ();
      let answer, t =
        time_median ~runs:3 (fun () ->
            Pebble.Pebble_game.wins ~prune_unary ~k:2 gtg
              ~mu:(Sparql.Mapping.to_assignment mu) graph)
      in
      record ~experiment:"A2"
        ~metric:(Printf.sprintf "prune_%s.time_ms" name)
        (ms t);
      Fmt.pr "%-14s %8b %12.3f %16d@." name answer (ms t)
        (Pebble.Pebble_game.stats_families_explored () / 3))
    [ ("on", true); ("off", false) ];
  (* PR 3 revisit: the evaluator's hot path now runs this same game
     through the encoded kernel, whose compile step bakes the unary
     candidate domains into the id-indexed structures once per
     (game, store) — the prune_unary knob only exists on the legacy
     term-level kernel. *)
  let enc = Encoded.Encoded_graph.of_graph_cached graph in
  let mu_assignment = Sparql.Mapping.to_assignment mu in
  let answer_cold, t_cold =
    time_median ~runs:3 (fun () ->
        Encoded.Encoded_pebble.wins ~k:2 gtg ~mu:mu_assignment enc)
  in
  let compiled = Encoded.Encoded_pebble.compile ~k:2 gtg enc in
  let ids = Encoded.Encoded_pebble.encode_mu compiled mu_assignment in
  let answer_warm, t_warm =
    time_median ~runs:3 (fun () -> Encoded.Encoded_pebble.run compiled ~mu:ids)
  in
  record ~experiment:"A2" ~metric:"encoded.cold_ms" (ms t_cold);
  record ~experiment:"A2" ~metric:"encoded.warm_ms" (ms t_warm);
  Fmt.pr "%-14s %8b %12.3f %16s@." "encoded-cold" answer_cold (ms t_cold) "-";
  Fmt.pr "%-14s %8b %12.3f %16s@." "encoded-warm" answer_warm (ms t_warm) "-";
  Fmt.pr "@.shape (an honest negative result, re-confirmed on PR 3): the eager@.";
  Fmt.pr "partial-hom checks during map enumeration already subsume the unary@.";
  Fmt.pr "filter, so the explored-map counts coincide; pruning only trims@.";
  Fmt.pr "candidate-loop overhead in the counter initialisation (~10%% here).@.";
  Fmt.pr "On the encoded path the knob is moot: compile precomputes the unary@.";
  Fmt.pr "domains once per (game, store), so a warm game pays neither cost.@.";
  Fmt.pr "Answers are identical by construction (tested).@."

let a3 () =
  header "A3" "ablation: hash indexes vs linear scan in the triple store"
    "DESIGN.md: seven access-pattern indexes";
  let g = Rdf.Generator.social ~seed:3 ~people:(if !fast then 60 else 120) in
  let p =
    Sparql.Parser.parse_exn "{ ?a p:knows ?b . ?b p:worksAt ?c . ?c p:livesIn ?t }"
  in
  let source = Tgraphs.Tgraph.of_triples (Sparql.Algebra.triples p) in
  let target = Rdf.Graph.to_index g in
  Fmt.pr "%-14s %12s %10s@." "lookup" "time(ms)" "answers";
  List.iter
    (fun (name, use_index) ->
      let n, t =
        time_median (fun () ->
            Tgraphs.Homomorphism.count ~use_index ~source ~target ())
      in
      Fmt.pr "%-14s %12.3f %10d@." name (ms t) n)
    [ ("indexed", true); ("scan", false) ];
  Fmt.pr "@.shape: indexed lookups dominate as |G| grows (same answers).@."

let f7 () =
  header "F7" "why a relaxation: exact td-guided test vs the pebble game"
    "Theorem 1's design: k-domination + relaxation, not a cleverer exact test";
  Fmt.pr "The td-guided evaluator decides each child test EXACTLY in@.";
  Fmt.pr "O(|G|^(ctw+1)). On T'_k the tested instance's core is trivial, so@.";
  Fmt.pr "it is fast; on F_k the tested instance contains the UNDOMINATED@.";
  Fmt.pr "clique (ctw = k−1), so the exact approach explodes with naive@.";
  Fmt.pr "while the 2-pebble relaxation stays flat — k-domination at work.@.@.";
  let n = if !fast then 12 else 16 in
  Fmt.pr "family F_k (dw = 1, undominated member of ctw k−1 inside GtG):@.";
  Fmt.pr "%4s %12s %12s %12s %7s@." "k" "naive(ms)" "td(ms)" "pebble(ms)" "agree";
  let stop = ref false in
  List.iter
    (fun k ->
      if not !stop then begin
        let forest = Query_families.f_k k in
        let g, mu = Graph_families.tournament_instance ~seed:1 ~n in
        let a1, t_naive = time_median ~runs:1 (fun () -> Wdpt.Semantics.check forest g mu) in
        let a2, t_td = time_median ~runs:1 (fun () -> Wd_core.Td_eval.check forest g mu) in
        let a3, t_pebble =
          time_median ~runs:1 (fun () -> Wd_core.Pebble_eval.check ~k:1 forest g mu)
        in
        Fmt.pr "%4d %12.3f %12.3f %12.3f %7b@." k (ms t_naive) (ms t_td)
          (ms t_pebble)
          (a1 = a2 && a2 = a3);
        if t_td > 2.0 || t_naive > 2.0 then stop := true
      end)
    [ 2; 3; 4; 5; 6 ];
  Fmt.pr "@.family T'_k (bw = 1: every tested core is trivial):@.";
  Fmt.pr "%4s %12s %12s %12s@." "k" "naive(ms)" "td(ms)" "pebble(ms)";
  List.iter
    (fun k ->
      let tree = Query_families.t_prime_k k in
      (* a graph with a self-loop so the root matches, plus noise *)
      let loop = Rdf.Triple.make (Rdf.Term.iri "d:0") (Rdf.Term.iri "p:r") (Rdf.Term.iri "d:0") in
      let noise = Rdf.Graph.triples (Rdf.Generator.random_digraph ~seed:4 ~n ~m:(3 * n) ~pred:"r") in
      let g = Rdf.Graph.of_triples (loop :: noise) in
      let mu = Sparql.Mapping.of_list [ (Rdf.Variable.of_string "y", Rdf.Iri.of_string "d:0") ] in
      let _, t_naive = time_median (fun () -> Wdpt.Semantics.check [ tree ] g mu) in
      let _, t_td = time_median (fun () -> Wd_core.Td_eval.check [ tree ] g mu) in
      let _, t_pebble =
        time_median (fun () -> Wd_core.Pebble_eval.check ~k:1 [ tree ] g mu)
      in
      Fmt.pr "%4d %12.3f %12.3f %12.3f@." k (ms t_naive) (ms t_td) (ms t_pebble))
    [ 2; 4; 6; 8 ]

let t7 () =
  header "T7" "realistic workload: the university benchmark"
    "end-to-end check that practical OPTIONAL queries sit at dw = 1";
  let unis = if !fast then 1 else 3 in
  let g = University.generate ~seed:9 ~universities:unis in
  Fmt.pr "data: %d triples (%d universities)@.@." (Rdf.Graph.cardinal g) unis;
  Fmt.pr "%-24s %4s %9s %12s %12s %7s@." "query" "dw" "answers" "baseline(ms)"
    "shared(ms)" "agree";
  List.iter
    (fun (name, src) ->
      let p = Sparql.Parser.parse_exn src in
      let forest = Wdpt.Pattern_forest.of_algebra p in
      let dw = Wd_core.Domination_width.of_forest forest in
      let base, t_base = time_median (fun () -> Wdpt.Semantics.solutions forest g) in
      let shared, t_shared =
        time_median (fun () -> Wd_core.Enumerate.solutions forest g)
      in
      Fmt.pr "%-24s %4d %9d %12.2f %12.2f %7b@." name dw
        (Sparql.Mapping.Set.cardinal base)
        (ms t_base) (ms t_shared)
        (Sparql.Mapping.Set.equal base shared))
    University.queries;
  Fmt.pr "@.shape: every query in the realistic workload has domination@.";
  Fmt.pr "width 1 — the tractable regime is where practice lives; the@.";
  Fmt.pr "frontier instances of F1/F2 are adversarial by design.@."

(* Minor-heap words one call of [f] allocates, averaged over [runs]
   calls after a warm-up call. *)
let words_per_call ?(runs = 20) f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int runs

(* Mean nanoseconds per call of [f i] over [n] calls, [i] in [0, n):
   the median of three such means. *)
let ns_per_call n f =
  let _, t =
    time_median (fun () ->
        for i = 0 to n - 1 do
          ignore (Sys.opaque_identity (f i))
        done)
  in
  t /. float_of_int n *. 1e9

let a4 () =
  header "A4" "ablation: hash-indexed terms vs dictionary-encoded sorted arrays"
    "DESIGN.md: the two storage backends (Rdf.Index vs Encoded_graph)";
  let people = if !fast then 100 else 300 in
  let g = Rdf.Generator.social ~seed:11 ~people in
  let enc, t_build = time_median (fun () -> Encoded.Encoded_graph.of_graph g) in
  Fmt.pr "graph: %d triples; encoded build: %.2f ms@.@." (Rdf.Graph.cardinal g)
    (ms t_build);
  Fmt.pr "%-20s %10s %12s %9s %14s %14s@." "query" "term(ms)" "encoded(ms)"
    "answers" "words/ans term" "words/ans enc";
  let queries =
    [
      ("2-hop knows", "{ ?a p:knows ?b . ?b p:knows ?c }");
      ("3-hop knows", "{ ?a p:knows ?b . ?b p:knows ?c . ?c p:knows ?d }");
      ("office triangle",
       "{ ?a p:knows ?b . ?a p:worksAt ?c . ?b p:worksAt ?c }");
      ("star", "{ ?a p:knows ?b . ?a p:email ?m . ?a p:livesIn ?t }");
    ]
  in
  let index = Rdf.Graph.to_index g in
  List.iter
    (fun (name, src) ->
      let source =
        Tgraphs.Tgraph.of_triples
          (Sparql.Algebra.triples (Sparql.Parser.parse_exn src))
      in
      let term () = Tgraphs.Homomorphism.count ~source ~target:index () in
      let n_term, t_term = time_median term in
      let compiled = Encoded.Encoded_hom.compile source enc in
      let encoded () = Encoded.Encoded_hom.count compiled in
      let n_enc, t_enc = time_median encoded in
      assert (n_term = n_enc);
      let per_answer w = w /. float_of_int (max 1 n_term) in
      let w_term = per_answer (words_per_call term)
      and w_enc = per_answer (words_per_call encoded) in
      record ~experiment:"A4" ~metric:(name ^ ".term_ms") (ms t_term);
      record ~experiment:"A4" ~metric:(name ^ ".encoded_ms") (ms t_enc);
      record ~experiment:"A4" ~metric:(name ^ ".term_words_per_answer") w_term;
      record ~experiment:"A4" ~metric:(name ^ ".encoded_words_per_answer")
        w_enc;
      Fmt.pr "%-20s %10.3f %12.3f %9d %14.0f %14.0f@." name (ms t_term)
        (ms t_enc) n_term w_term w_enc)
    queries;
  (* The probe under every join: one (p, o)-bound [match_count], two
     binary searches, on each backend a store can have. Recorded, not
     gated — a section read at an untyped Bigarray kind, or a
     polymorphic comparison, shows up here as a number. *)
  let wds = Filename.temp_file "bench_a4" ".wds" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ wds; Storage.seg_path wds 1 ])
  @@ fun () ->
  Storage.save enc wds;
  let mapped = Storage.load wds in
  let node i = Rdf.Term.iri (Printf.sprintf "person:%d" i) in
  let knows = Rdf.Term.iri "p:knows" in
  ignore
    (Storage.append
       ~adds:
         (List.init 16 (fun i ->
              Rdf.Triple.make (node (people + i)) knows (node i)))
       ~dels:[] wds);
  let overlay = Storage.load wds in
  Fmt.pr "@.%-28s %12s@." "probe: match_count (p, o)" "ns/call";
  List.iter
    (fun (backend, store) ->
      let dict = Encoded.Encoded_graph.dictionary store in
      let id t = Option.get (Rdf.Dictionary.find dict t) in
      let p = id knows in
      let objects = Array.init 64 (fun i -> id (node (i mod people))) in
      let ns =
        ns_per_call 10_000 (fun i ->
            Encoded.Encoded_graph.match_count store Encoded.Encoded_graph.unbound
              p objects.(i land 63))
      in
      record ~experiment:"A4" ~metric:("probe." ^ backend ^ "_ns") ns;
      Fmt.pr "%-28s %12.0f@." backend ns)
    [ ("heap", enc); ("mmap", mapped); ("overlay", overlay) ];
  (* The answer path a CLI [eval] runs, warm: the top-down walk, the
     row ranking and sort ([Engine.answer_rows]) and the byte writer
     ([Row_writer.write]), on the comb4 and star6 shapes over a graph of
     out-degree 2 per predicate, as the frontier workload has them.
     Recorded, not gated. *)
  let shape_graph ~nodes preds =
    let st = Random.State.make [| nodes; 17 |] in
    let node i = Rdf.Term.iri (Printf.sprintf "n:%d" i) in
    List.concat_map
      (fun pr ->
        List.concat
          (List.init nodes (fun i ->
               let a = Random.State.int st nodes in
               let b = (a + 1 + Random.State.int st (nodes - 1)) mod nodes in
               List.map
                 (fun j -> Rdf.Triple.make (node i) (Rdf.Term.iri ("p:" ^ pr)) (node j))
                 [ a; b ])))
      preds
    |> Rdf.Graph.of_triples
  in
  let nodes = if !fast then 20 else 30 in
  Fmt.pr "@.%-28s %9s %10s %14s@." "answer path (warm)" "answers" "ms"
    "words/answer";
  List.iter
    (fun (name, tree, preds) ->
      let g = shape_graph ~nodes preds in
      let plan =
        Wd_core.Engine.plan (Wdpt.Pattern_forest.to_algebra [ tree ])
      in
      let buf = Buffer.create 65536 in
      let run () =
        Buffer.clear buf;
        let rows = Wd_core.Engine.answer_rows plan g in
        Wd_core.Row_writer.write buf rows;
        Wd_core.Row_writer.cardinal rows
      in
      let answers = run () in
      let _, t = time_median ~runs:5 run in
      let words = words_per_call ~runs:5 run /. float_of_int (max 1 answers) in
      record ~experiment:"A4" ~metric:("answer_path." ^ name ^ "_ms") (ms t);
      record ~experiment:"A4"
        ~metric:("answer_path." ^ name ^ "_words_per_answer")
        words;
      Fmt.pr "%-28s %9d %10.3f %14.1f@." name answers (ms t) words)
    [
      ("comb4", Query_families.comb_query 4, [ "p"; "t" ]);
      ( "star6",
        Query_families.star_query 6,
        List.init 7 (Printf.sprintf "c%d") );
    ];
  Fmt.pr "@.shape: identical counts (cross-checked); the encoded engine@.";
  Fmt.pr "avoids term hashing and allocation in the inner join loop.@."

(* ------------------------------------------------------------------ *)
(* A5 — encoded vs term-level pebble kernel                            *)
(* ------------------------------------------------------------------ *)

(* The A2 instance: sparse anchored digraph where the unary candidate
   domains collapse to a handful of nodes. *)
let a2_instance () =
  let nodes = if !fast then 30 else 60 in
  let graph =
    let anchor = Rdf.Term.iri "n:anchor" in
    let node i = Rdf.Term.iri (Printf.sprintf "d:%d" i) in
    let r = Rdf.Term.iri "p:r" and p = Rdf.Term.iri "p:p" in
    let state = Random.State.make [| 42; nodes |] in
    let triples = ref [ Rdf.Triple.make anchor p (node 0) ] in
    for i = 1 to 3 do
      triples := Rdf.Triple.make (node 0) r (node i) :: !triples
    done;
    for _ = 1 to 6 * nodes do
      let i = 1 + Random.State.int state (nodes - 1) in
      let j = 1 + Random.State.int state (nodes - 1) in
      if i <> j then triples := Rdf.Triple.make (node i) r (node j) :: !triples
    done;
    Rdf.Graph.of_triples !triples
  in
  let mu =
    Sparql.Mapping.of_list
      [
        (Rdf.Variable.of_string "x", Rdf.Iri.of_string "n:anchor");
        (Rdf.Variable.of_string "y", Rdf.Iri.of_string "d:0");
      ]
  in
  let tree = Query_families.clique_child 4 in
  let subtree = Wdpt.Subtree.root_only tree in
  let s =
    Tgraphs.Tgraph.union (Wdpt.Subtree.pat subtree) (Wdpt.Pattern_tree.pat tree 1)
  in
  (Tgraphs.Gtgraph.make s (Wdpt.Subtree.vars subtree), mu, graph)

(* The F_k child test the Theorem-1 path actually issues: the union game
   of a matched subtree and its optional clique child, over an anchored
   tournament. *)
let f_k_child_game ~k ~n =
  let forest = Query_families.f_k k in
  let g, mu = Graph_families.tournament_instance ~seed:1 ~n in
  let tree, subtree =
    List.find_map
      (fun tree ->
        match Wdpt.Subtree.matching tree g mu with
        | Some st when Wdpt.Subtree.children st <> [] -> Some (tree, st)
        | _ -> None)
      forest
    |> Option.get
  in
  let child = List.hd (Wdpt.Subtree.children subtree) in
  let s =
    Tgraphs.Tgraph.union (Wdpt.Subtree.pat subtree)
      (Wdpt.Pattern_tree.pat tree child)
  in
  (Tgraphs.Gtgraph.make s (Wdpt.Subtree.vars subtree), mu, g)

let a5 () =
  header "A5" "ablation: encoded vs term-level pebble kernel"
    "ISSUE 2 tentpole: the k-consistency fixpoint over the encoded store";
  Fmt.pr "The same child-test games, decided by the term-level kernel and by@.";
  Fmt.pr "Encoded_pebble — cold (compile + run) and warm (precompiled, the@.";
  Fmt.pr "regime the evaluation-wide cache operates in). Answers cross-checked.@.@.";
  let workloads =
    [
      ("a2-sparse-anchor", 2, a2_instance ());
      ("clique-child-4-tournament", 2,
       f_k_child_game ~k:4 ~n:(if !fast then 14 else 20));
      ("f8-tournament", 2, f_k_child_game ~k:8 ~n:(if !fast then 14 else 20));
    ]
  in
  Fmt.pr "%-28s %8s %10s %10s %10s %8s@." "workload" "answer" "term(ms)"
    "cold(ms)" "warm(ms)" "speedup";
  let speedups = ref [] in
  List.iter
    (fun (name, k, (gtg, mu, graph)) ->
      let assignment = Sparql.Mapping.to_assignment mu in
      let term_ans, t_term =
        time_median ~runs:5 (fun () ->
            Pebble.Pebble_game.wins ~k gtg ~mu:assignment graph)
      in
      let enc = Encoded.Encoded_graph.of_graph_cached graph in
      let cold_ans, t_cold =
        time_median ~runs:5 (fun () ->
            Encoded.Encoded_pebble.wins ~k gtg ~mu:assignment enc)
      in
      let compiled = Encoded.Encoded_pebble.compile ~k gtg enc in
      let ids = Encoded.Encoded_pebble.encode_mu compiled assignment in
      let warm_ans, t_warm =
        time_median ~runs:5 (fun () ->
            Encoded.Encoded_pebble.run compiled ~mu:ids)
      in
      assert (term_ans = cold_ans && cold_ans = warm_ans);
      let speedup = t_term /. t_warm in
      speedups := speedup :: !speedups;
      record ~experiment:"A5" ~metric:(name ^ ".term_ms") (ms t_term);
      record ~experiment:"A5" ~metric:(name ^ ".encoded_cold_ms") (ms t_cold);
      record ~experiment:"A5" ~metric:(name ^ ".encoded_warm_ms") (ms t_warm);
      record ~experiment:"A5" ~metric:(name ^ ".speedup_warm") speedup;
      Fmt.pr "%-28s %8b %10.3f %10.3f %10.3f %7.1fx@." name term_ans
        (ms t_term) (ms t_cold) (ms t_warm) speedup)
    workloads;
  let median_speedup =
    let sorted = List.sort compare !speedups in
    List.nth sorted (List.length sorted / 2)
  in
  record ~experiment:"A5" ~metric:"median_speedup_warm" median_speedup;
  Fmt.pr "@.median warm speedup: %.1fx (target: >= 3x)@." median_speedup

(* ------------------------------------------------------------------ *)
(* A6 — evaluation-wide pebble cache on/off                            *)
(* ------------------------------------------------------------------ *)

(* A membership-check stream: a tournament on t:0..t:n-1 plus [anchors]
   extra sources a:i with a p-edge to every tournament node, and one
   candidate mapping {x → a:i, y → t:j} per p-edge.  Each
   [Pebble_eval.check] call is dominated by the K_k child game, and the
   verdict of that game depends only on µ|{y} — so across the stream the
   cache answers (anchors-1)/anchors of the tests from the memo table. *)
let stream_instance ~seed ~n ~anchors =
  let state = Random.State.make [| seed; n; 77 |] in
  let tnode i = Rdf.Term.iri (Printf.sprintf "t:%d" i) in
  let anode i = Rdf.Term.iri (Printf.sprintf "a:%d" i) in
  let r = Rdf.Term.iri "p:r" and p = Rdf.Term.iri "p:p" in
  let triples = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let src, dst = if Random.State.bool state then (i, j) else (j, i) in
      triples := Rdf.Triple.make (tnode src) r (tnode dst) :: !triples
    done
  done;
  for i = 0 to anchors - 1 do
    for j = 0 to n - 1 do
      triples := Rdf.Triple.make (anode i) p (tnode j) :: !triples
    done
  done;
  let graph = Rdf.Graph.of_triples !triples in
  let mus =
    List.concat_map
      (fun i ->
        List.init n (fun j ->
            Sparql.Mapping.of_list
              [
                (Rdf.Variable.of_string "x",
                 Rdf.Iri.of_string (Printf.sprintf "a:%d" i));
                (Rdf.Variable.of_string "y",
                 Rdf.Iri.of_string (Printf.sprintf "t:%d" j));
              ]))
      (List.init anchors Fun.id)
  in
  (graph, mus)

let a6 () =
  header "A6" "ablation: evaluation-wide pebble cache on/off"
    "ISSUE 2 tentpole: compiled-game reuse + verdict memoization";
  Fmt.pr "Theorem-1 membership streams (one Pebble_eval.check per candidate@.";
  Fmt.pr "mapping) over the encoded kernel, with a fresh plan cache per check@.";
  Fmt.pr "and with one shared cache (one game per (node, k), verdicts keyed on@.";
  Fmt.pr "µ|shared).  Plus one full Pebble_eval.solutions workload, where the@.";
  Fmt.pr "homomorphism join dilutes the gain.@.@.";
  Fmt.pr "%-28s %8s %12s %10s %8s %8s %6s@." "workload" "answers"
    "nocache(ms)" "cache(ms)" "speedup" "hits" "games";
  let speedups = ref [] in
  let report name answers t_nocache t_cached stats =
    let speedup = t_nocache /. t_cached in
    speedups := speedup :: !speedups;
    record ~experiment:"A6" ~metric:(name ^ ".nocache_ms") (ms t_nocache);
    record ~experiment:"A6" ~metric:(name ^ ".cache_ms") (ms t_cached);
    record ~experiment:"A6" ~metric:(name ^ ".speedup_vs_nocache") speedup;
    record ~experiment:"A6" ~metric:(name ^ ".cache_hits")
      (float_of_int stats.Wd_core.Pebble_cache.hits);
    record ~experiment:"A6" ~metric:(name ^ ".cache_misses")
      (float_of_int stats.Wd_core.Pebble_cache.misses);
    record ~experiment:"A6" ~metric:(name ^ ".games_compiled")
      (float_of_int stats.Wd_core.Pebble_cache.compiled);
    record ~experiment:"A6" ~metric:(name ^ ".families_explored")
      (float_of_int stats.Wd_core.Pebble_cache.families);
    Fmt.pr "%-28s %8d %12.3f %10.3f %7.1fx %8d %6d@." name answers
      (ms t_nocache) (ms t_cached) speedup stats.Wd_core.Pebble_cache.hits
      stats.Wd_core.Pebble_cache.compiled
  in
  (* Time [run] once per cache variant: a fresh plan cache for every
     check (nothing carried from one check to the next), then one shared
     cache whose stats are reported. *)
  let measure run =
    let runs = 3 in
    let nocache_ans, t_nocache =
      time_median ~runs (fun () ->
          run (fun () -> Wd_core.Plan_cache.create ()))
    in
    let cache = ref None in
    let cached_ans, t_cached =
      time_median ~runs (fun () ->
          let c = Wd_core.Plan_cache.create () in
          cache := Some c;
          run (fun () -> c))
    in
    (nocache_ans, cached_ans, t_nocache, t_cached,
     (Wd_core.Plan_cache.stats (Option.get !cache)).Wd_core.Plan_cache.pebble)
  in
  (* membership-check streams *)
  let n = if !fast then 10 else 14 and anchors = if !fast then 6 else 8 in
  let stream_workloads =
    [
      ("f8-check-stream", 1, Query_families.f_k 8, 1);
      ("f6-check-stream", 1, Query_families.f_k 6, 2);
      ("clique-child-4-check-stream", 2, [ Query_families.clique_child 4 ], 3);
    ]
  in
  List.iter
    (fun (name, k, forest, seed) ->
      let graph, mus = stream_instance ~seed ~n ~anchors in
      let nocache_ans, cached_ans, t_nocache, t_cached, stats =
        measure (fun cache ->
            List.map
              (fun mu ->
                Wd_core.Pebble_eval.check ~k ~cache:(cache ()) forest graph mu)
              mus)
      in
      assert (nocache_ans = cached_ans);
      let answers = List.length (List.filter Fun.id cached_ans) in
      report name answers t_nocache t_cached stats)
    stream_workloads;
  (* full answer enumeration: the kernel is only part of the wall time *)
  let () =
    let forest = Query_families.f_k 4 in
    let graph =
      fst (Graph_families.tournament_instance ~seed:1 ~n:(if !fast then 10 else 14))
    in
    (* Pebble_eval.solutions's candidates (homomorphisms of every
       subtree pattern), each checked on its own cache on the no-cache
       side *)
    let solutions cache =
      let enc = Encoded.Encoded_graph.of_graph_cached graph in
      List.fold_left
        (fun acc tree ->
          List.fold_left
            (fun acc subtree ->
              Encoded.Encoded_hom.all
                (Encoded.Encoded_hom.compile (Wdpt.Subtree.pat subtree) enc)
              |> List.filter_map Sparql.Mapping.of_assignment
              |> List.fold_left
                   (fun acc mu ->
                     if
                       (not (Sparql.Mapping.Set.mem mu acc))
                       && Wd_core.Pebble_eval.check ~cache:(cache ()) ~k:1
                            forest graph mu
                     then Sparql.Mapping.Set.add mu acc
                     else acc)
                   acc)
            acc (Wdpt.Subtree.all tree))
        Sparql.Mapping.Set.empty forest
    in
    let nocache_ans, cached_ans, t_nocache, t_cached, stats =
      measure solutions
    in
    assert (
      Sparql.Mapping.Set.equal cached_ans
        (Wd_core.Pebble_eval.solutions ~k:1 forest graph));
    assert (Sparql.Mapping.Set.equal nocache_ans cached_ans);
    report "f4-solutions" (Sparql.Mapping.Set.cardinal cached_ans) t_nocache
      t_cached stats
  in
  let median_speedup =
    let sorted = List.sort compare !speedups in
    List.nth sorted (List.length sorted / 2)
  in
  record ~experiment:"A6" ~metric:"median_speedup_vs_nocache" median_speedup;
  Fmt.pr "@.median cached speedup vs a fresh cache per check: %.1fx@."
    median_speedup

let a7 () =
  header "A7" "ablation: encoded hom-join + plan cache in full enumeration"
    "ISSUE 3 tentpole: candidate generation over the dictionary store";
  Fmt.pr "Full Theorem-1 enumeration two ways: the encoded join with a@.";
  Fmt.pr "cold plan cache (sources + games compiled per run), and with a@.";
  Fmt.pr "warm plan cache (compiled sources, games and verdicts reused@.";
  Fmt.pr "across evaluations).  Every variant's answer set is checked@.";
  Fmt.pr "against the reference algebra evaluator.@.@.";
  let n = if !fast then 10 else 14 in
  let anchors = if !fast then 4 else 6 in
  let uni_graph =
    University.generate ~seed:9 ~universities:(if !fast then 1 else 2)
  in
  let uni2_graph = University.generate ~seed:11 ~universities:1 in
  let uni_forest name =
    Wdpt.Pattern_forest.of_algebra
      (Sparql.Parser.parse_exn (List.assoc name University.queries))
  in
  let workloads =
    [
      ( "f4-enumerate", 1, Query_families.f_k 4,
        fst (Graph_families.tournament_instance ~seed:1 ~n) );
      ( "f6-enumerate", 1, Query_families.f_k 6,
        fst (Graph_families.tournament_instance ~seed:2 ~n) );
      ( "clique-child-4-enumerate", 2, [ Query_families.clique_child 4 ],
        fst (stream_instance ~seed:3 ~n ~anchors) );
      ( "social-optional", 1,
        Wdpt.Pattern_forest.of_algebra
          (Sparql.Parser.parse_exn
             "{ ?a p:knows ?b . OPTIONAL { ?b p:email ?m } OPTIONAL { ?b \
              p:worksAt ?c OPTIONAL { ?c p:livesIn ?t } } }"),
        Rdf.Generator.social ~seed:9 ~people:(if !fast then 40 else 80) );
      ("uni-professor-profile", 1, uni_forest "professor-profile", uni_graph);
      ("uni-department-roster", 1, uni_forest "department-roster", uni_graph);
      ("uni-student-transcript", 1, uni_forest "student-transcript", uni_graph);
      ("uni-classmates", 1, uni_forest "classmates", uni_graph);
      ( "uni2-professor-profile", 1,
        uni_forest "professor-profile", uni2_graph );
      ( "uni2-department-roster", 1,
        uni_forest "department-roster", uni2_graph );
    ]
  in
  Fmt.pr "%-26s %8s %10s %10s %7s@." "workload" "answers" "cold(ms)"
    "warm(ms)" "warm-x";
  let warm_speedups = ref [] in
  List.iter
    (fun (name, k, forest, graph) ->
      let runs = if !fast then 5 else 9 in
      let reference =
        Sparql.Eval.eval (Wdpt.Pattern_forest.to_algebra forest) graph
      in
      let verify variant got =
        if not (Sparql.Mapping.Set.equal got reference) then begin
          Fmt.epr "A7 %s: %s answers diverge from the reference evaluator@."
            name variant;
          exit 1
        end
      in
      (* encoded join, cold: a fresh plan cache per evaluation *)
      let cold () =
        Wd_core.Enumerate.solutions ~maximality:(`Pebble k)
          ~cache:(Wd_core.Plan_cache.create ()) forest graph
      in
      (* encoded join, warm: one plan cache across evaluations — the
         steady state of repeated [Engine.solutions] on one plan *)
      let cache = Wd_core.Plan_cache.create () in
      let warm () =
        Wd_core.Enumerate.solutions ~maximality:(`Pebble k) ~cache forest graph
      in
      (* Interleaved sampling: probe each variant once (verifying its
         answers and sizing a batch so every sample spans >= 20ms of
         work), then take both variants' samples round-robin so
         machine-throughput drift hits the ratios symmetrically instead
         of whichever variant happened to run during a slow stretch. *)
      Gc.compact ();
      let probe variant f =
        let ans, t = time_once f in
        verify variant ans;
        (max 1 (min 1000 (int_of_float (Float.ceil (0.02 /. Float.max t 1e-6)))), f)
      in
      let variants = [| probe "encoded-cold" cold; probe "encoded-warm" warm |] in
      let samples = Array.map (fun _ -> ref []) variants in
      for _ = 1 to runs do
        Array.iteri
          (fun i (batch, f) ->
            let t0 = Unix.gettimeofday () in
            for _ = 1 to batch do
              ignore (f ())
            done;
            let t = (Unix.gettimeofday () -. t0) /. float_of_int batch in
            samples.(i) := t :: !(samples.(i)))
          variants
      done;
      let median_of i =
        let sorted = List.sort compare !(samples.(i)) in
        List.nth sorted (List.length sorted / 2)
      in
      let t_cold = median_of 0 and t_warm = median_of 1 in
      let speedup_warm = t_cold /. t_warm in
      warm_speedups := speedup_warm :: !warm_speedups;
      record ~experiment:"A7" ~metric:(name ^ ".cold_ms") (ms t_cold);
      record ~experiment:"A7" ~metric:(name ^ ".warm_ms") (ms t_warm);
      record ~experiment:"A7" ~metric:(name ^ ".speedup_warm_vs_cold")
        speedup_warm;
      record ~experiment:"A7" ~metric:(name ^ ".answers")
        (float_of_int (Sparql.Mapping.Set.cardinal reference));
      let stats = Wd_core.Plan_cache.stats cache in
      record ~experiment:"A7" ~metric:(name ^ ".hom_sources")
        (float_of_int stats.Wd_core.Plan_cache.hom_sources);
      record ~experiment:"A7" ~metric:(name ^ ".verdict_hits")
        (float_of_int stats.Wd_core.Plan_cache.pebble.Wd_core.Pebble_cache.hits);
      Fmt.pr "%-26s %8d %10.3f %10.3f %6.1fx@." name
        (Sparql.Mapping.Set.cardinal reference)
        (ms t_cold) (ms t_warm) speedup_warm)
    workloads;
  let median_speedup_warm =
    let sorted = List.sort compare !warm_speedups in
    List.nth sorted (List.length sorted / 2)
  in
  record ~experiment:"A7" ~metric:"median_speedup_warm_vs_cold"
    median_speedup_warm;
  Fmt.pr "@.median warm speedup vs a cold plan cache: %.1fx@."
    median_speedup_warm

(* ------------------------------------------------------------------ *)
(* A10 — ablation: cost-based planning vs textual-order fail-first     *)
(* ------------------------------------------------------------------ *)

let a10 () =
  header "A10" "ablation: cost-based join planning on skewed stores"
    "ISSUE 7 tentpole: compiled orders + incremental fail-first refinement";
  Fmt.pr "Warm full enumeration on Zipf-skewed graphs under the two join@.";
  Fmt.pr "planning modes: fail-first with ties broken by textual pattern@.";
  Fmt.pr "order (--optimize off; the choices of per-prefix rescoring), and@.";
  Fmt.pr "the compiled order as tie-break (--optimize on). Both answer@.";
  Fmt.pr "maximality exact first. Every variant is verified against the@.";
  Fmt.pr "reference algebra evaluator.@.@.";
  let preds = [ "q0"; "q1"; "q2"; "q3"; "q4"; "q5" ] in
  (* Zipf-skewed stores: node 0 is the heaviest hub and predicate
     cardinalities fall off steeply, so uniform-guess join orders are
     maximally wrong. [--fast] halves both axes (density preserved). *)
  let zg seed n m e =
    let n = if !fast then n / 2 else n
    and m = if !fast then m / 2 else m in
    Rdf.Generator.zipf ~seed ~n ~predicates:preds ~m ~exponent:e ()
  in
  let q src = Wdpt.Pattern_forest.of_algebra (Sparql.Parser.parse_exn src) in
  (* Joins where planning matters: multi-triple roots over predicates of
     very different cardinality (the compiled order front-loads the rare
     ones), with selective OPTIONAL children. *)
  let workloads =
    [
      ( "star2-two-optionals",
        q
          "{ ?a p:q1 ?b . ?a p:q2 ?c . OPTIONAL { ?b p:q5 ?d } OPTIONAL \
           { ?c p:q4 ?e } }",
        zg 16 100 800 1.4 );
      ( "three-optionals",
        q
          "{ ?a p:q1 ?b . OPTIONAL { ?b p:q5 ?c } OPTIONAL { ?a p:q4 ?d } \
           OPTIONAL { ?b p:q3 ?e } }",
        zg 12 100 800 1.4 );
      ( "chain2-two-optionals",
        q
          "{ ?a p:q1 ?b . ?b p:q2 ?c . OPTIONAL { ?c p:q5 ?d } OPTIONAL \
           { ?a p:q4 ?e } }",
        zg 17 100 800 1.4 );
      ( "nested-optionals",
        q
          "{ ?a p:q1 ?b . OPTIONAL { ?b p:q3 ?c . OPTIONAL { ?c p:q5 ?d } \
           } OPTIONAL { ?a p:q4 ?e } }",
        zg 18 100 800 1.4 );
      ( "triangle-two-optionals",
        q
          "{ ?a p:q0 ?b . ?b p:q1 ?c . ?a p:q2 ?c . OPTIONAL { ?c p:q5 ?d \
           } OPTIONAL { ?b p:q4 ?e } }",
        zg 25 120 1100 1.2 );
    ]
  in
  Fmt.pr "%-20s %8s %11s %11s %9s@." "workload" "answers" "rescore(ms)"
    "adaptive(ms)" "adapt-x";
  let adaptive_speedups = ref [] in
  List.iter
    (fun (name, forest, graph) ->
      let runs = if !fast then 5 else 9 in
      let dw = Wd_core.Domination_width.of_forest forest in
      let reference =
        Sparql.Eval.eval (Wdpt.Pattern_forest.to_algebra forest) graph
      in
      let verify variant got =
        if not (Sparql.Mapping.Set.equal got reference) then begin
          Fmt.epr "A10 %s: %s answers diverge from the reference evaluator@."
            name variant;
          exit 1
        end
      in
      (* one warm plan cache per variant: compiled sources, games, and
         (for the planned variants) node decisions are steady state, so
         the timings isolate the join itself *)
      let eval optimize =
        let cache = Wd_core.Plan_cache.create () in
        fun () ->
          Wd_core.Enumerate.solutions ~maximality:(`Pebble dw) ~cache
            ~optimize forest graph
      in
      let rescore = eval `Off and adaptive = eval `On in
      (* interleaved round-robin sampling, as in A7: probe each variant
         (verifying answers, sizing a >= 20ms batch), then sample the
         two variants alternately so throughput drift hits the ratios
         symmetrically *)
      Gc.compact ();
      let probe variant f =
        let ans, t = time_once f in
        verify variant ans;
        ( max 1 (min 1000 (int_of_float (Float.ceil (0.02 /. Float.max t 1e-6)))),
          f )
      in
      let variants = [| probe "rescore" rescore; probe "adaptive" adaptive |] in
      let samples = Array.map (fun _ -> ref []) variants in
      for _ = 1 to runs do
        Array.iteri
          (fun i (batch, f) ->
            let t0 = Unix.gettimeofday () in
            for _ = 1 to batch do
              ignore (f ())
            done;
            let t = (Unix.gettimeofday () -. t0) /. float_of_int batch in
            samples.(i) := t :: !(samples.(i)))
          variants
      done;
      let median_of i =
        let sorted = List.sort compare !(samples.(i)) in
        List.nth sorted (List.length sorted / 2)
      in
      let t_rescore = median_of 0 and t_adaptive = median_of 1 in
      let speedup_adaptive = t_rescore /. t_adaptive in
      adaptive_speedups := speedup_adaptive :: !adaptive_speedups;
      record ~experiment:"A10" ~metric:(name ^ ".rescore_ms") (ms t_rescore);
      record ~experiment:"A10" ~metric:(name ^ ".adaptive_ms") (ms t_adaptive);
      record ~experiment:"A10" ~metric:(name ^ ".speedup_adaptive")
        speedup_adaptive;
      record ~experiment:"A10" ~metric:(name ^ ".answers")
        (float_of_int (Sparql.Mapping.Set.cardinal reference));
      Fmt.pr "%-20s %8d %11.3f %11.3f %8.2fx@." name
        (Sparql.Mapping.Set.cardinal reference)
        (ms t_rescore) (ms t_adaptive) speedup_adaptive)
    workloads;
  let median_speedup =
    let sorted = List.sort compare !adaptive_speedups in
    List.nth sorted (List.length sorted / 2)
  in
  record ~experiment:"A10" ~metric:"median_speedup_adaptive" median_speedup;
  Fmt.pr
    "@.median optimizer-on speedup vs --optimize off: %.2fx@."
    median_speedup

(* ------------------------------------------------------------------ *)
(* A11 — cold start: Turtle parse+encode vs compiled-store mmap        *)
(* ------------------------------------------------------------------ *)

let a11_read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Minimal loopback HTTP client for the server-path measurement (same
   shape as bench/server_bench.ml). *)
let a11_http_request ~port raw =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let rec send off =
        if off < String.length raw then
          send
            (off + Unix.write_substring fd raw off (String.length raw - off))
      in
      (try send 0 with
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      let buf = Bytes.create 4096 and out = Buffer.create 256 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes out buf 0 n;
            drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      in
      drain ();
      Buffer.contents out)

(* Lower quartile, median and upper quartile of a sample. *)
let quartiles l =
  let a = Array.of_list (List.sort compare l) in
  let at q = a.(q * (Array.length a - 1) / 4) in
  (at 1, at 2, at 3)

let a11 () =
  header "A11" "cold start: Turtle parse+encode vs compiled-store mmap"
    "ISSUE 8 tentpole: the on-disk store loads in O(pages touched)";
  Fmt.pr "The same social graph reaches its first answer from a cold process@.";
  Fmt.pr "two ways: parse the Turtle + encode (the pre-PR-8 path), or map the@.";
  Fmt.pr "compiled store. Full answer sets are cross-checked, then the same@.";
  Fmt.pr "ablation is run through the server: process start to first 200.@.@.";
  let people = if !fast then 400 else 2000 in
  let g = Rdf.Generator.social ~seed:11 ~people in
  let ttl = Filename.temp_file "bench_a11" ".ttl" in
  let wds = Filename.temp_file "bench_a11" ".wds" in
  let cleanup () =
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ ttl; wds ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let oc = open_out ttl in
  output_string oc (Rdf.Turtle.to_string g);
  close_out oc;
  let _, t_compile =
    time_once (fun () -> Storage.save (Encoded.Encoded_graph.of_graph g) wds)
  in
  let query = "{ ?a p:knows ?b . OPTIONAL { ?b p:email ?m } }" in
  let pattern = Sparql.Parser.parse_exn query in
  let parse_path () =
    match Rdf.Turtle.parse_graph_err ~source:ttl (a11_read_file ttl) with
    | Ok g -> g
    | Error _ -> failwith "A11: turtle reparse failed"
  in
  let store_path () = Storage.load_graph wds in
  (* Time-to-first-solution, cold: graph load + plan + evaluate until
     the first answer is accounted. Every run starts from nothing — the
     store registry and MRU are dropped in between. *)
  let ttfs load =
    Encoded.Encoded_graph.clear_cache ();
    let graph = load () in
    let plan = Wd_core.Engine.plan pattern in
    let budget = Resource.Budget.make ~max_solutions:1 () in
    match Wd_core.Engine.solutions ~budget plan graph with
    | _ -> ()
    | exception Resource.Budget.Exhausted _ -> ()
  in
  (* [pairs] parse/mmap pairs whose first path alternates, gated on the
     median per-pair speedup: one slow run under a parallel test suite
     then moves a quartile, not the gate. Each side of a pair is one
     batched sample, long enough for the wall clock. *)
  let pairs = 7 in
  let once load = snd (time_median ~runs:1 (fun () -> ttfs load)) in
  let runs =
    List.init pairs (fun i ->
        if i mod 2 = 0 then
          let t_parse = once parse_path in
          (t_parse, once store_path)
        else
          let t_mmap = once store_path in
          (once parse_path, t_mmap))
  in
  let _, t_parse, _ = quartiles (List.map fst runs) in
  let _, t_mmap, _ = quartiles (List.map snd runs) in
  let q1, speedup, q3 =
    quartiles (List.map (fun (p, m) -> p /. Float.max m 1e-9) runs)
  in
  (* differential check: the two paths agree on the full answer set *)
  Encoded.Encoded_graph.clear_cache ();
  let full graph = Wd_core.Engine.solutions (Wd_core.Engine.plan pattern) graph in
  let reference = full (parse_path ()) and mapped = full (store_path ()) in
  if not (Sparql.Mapping.Set.equal reference mapped) then begin
    Fmt.epr "A11: mapped-store answers diverge from the parsed graph@.";
    exit 1
  end;
  Fmt.pr "%-26s %10s %12s %12s %8s@." "path" "answers" "compile(ms)"
    "ttfs(ms)" "speedup";
  Fmt.pr "%-26s %10d %12s %12.3f %8s@." "turtle-parse+encode"
    (Sparql.Mapping.Set.cardinal reference) "-" (ms t_parse) "1.0x";
  Fmt.pr "%-26s %10d %12.3f %12.3f %7.1fx@." "compiled-store-mmap"
    (Sparql.Mapping.Set.cardinal mapped) (ms t_compile) (ms t_mmap) speedup;
  record ~experiment:"A11" ~metric:"graph_triples" (float (Rdf.Graph.cardinal g));
  record ~experiment:"A11" ~metric:"compile_ms" (ms t_compile);
  record ~experiment:"A11" ~metric:"parse_ttfs_ms" (ms t_parse);
  record ~experiment:"A11" ~metric:"mmap_ttfs_ms" (ms t_mmap);
  record ~experiment:"A11" ~metric:"speedup_ttfs" speedup;
  record ~experiment:"A11" ~metric:"speedup_ttfs_q1" q1;
  record ~experiment:"A11" ~metric:"speedup_ttfs_q3" q3;
  record ~experiment:"A11" ~metric:"answers_agree" 1.0;
  (* Server path: process start (including graph load) to the first 200
     on /sparql, heap vs store cold start. *)
  let ttfa load =
    Encoded.Encoded_graph.clear_cache ();
    let t0 = Unix.gettimeofday () in
    let graph = load () in
    let server =
      Wd_server.Server.start
        {
          Wd_server.Server.graph;
          reload = None;
          host = "127.0.0.1";
          port = 0;
          workers = 2;
          queue_capacity = 16;
          admission =
            {
              Wd_server.Admission.request_fuel = 50_000_000;
              request_timeout = 30.;
              max_solutions = None;
              global_fuel = None;
              refill_rate = 0.;
              max_inflight = 8;
            };
          max_request_bytes = 1 lsl 16;
          io_timeout = 30.;
          faults = Wd_server.Faults.none;
          plan_capacity = 8;
        }
    in
    let port = Wd_server.Server.port server in
    let request =
      Printf.sprintf "POST /sparql HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
        (String.length query) query
    in
    let response = a11_http_request ~port request in
    let dt = Unix.gettimeofday () -. t0 in
    let ok =
      match String.split_on_char ' ' response with
      | _ :: "200" :: _ -> true
      | _ -> false
    in
    Wd_server.Server.initiate_drain server;
    ignore (Wd_server.Server.join server);
    if not ok then begin
      Fmt.epr "A11: server path did not answer 200@.";
      exit 1
    end;
    dt
  in
  let t_serve_parse = ttfa parse_path in
  let t_serve_mmap = ttfa store_path in
  let serve_speedup = t_serve_parse /. Float.max t_serve_mmap 1e-9 in
  Fmt.pr "@.server time-to-first-answer: parse %.3fms, mmap %.3fms (%.1fx)@."
    (ms t_serve_parse) (ms t_serve_mmap) serve_speedup;
  record ~experiment:"A11" ~metric:"server_parse_ttfa_ms" (ms t_serve_parse);
  record ~experiment:"A11" ~metric:"server_mmap_ttfa_ms" (ms t_serve_mmap);
  record ~experiment:"A11" ~metric:"server_speedup_ttfa" serve_speedup;
  Fmt.pr "@.cold-start speedup: %.1fx, median of %d pairs (q1-q3 %.1f-%.1fx; \
          target: >= 20x)@."
    speedup pairs q1 q3;
  if speedup < 20. then begin
    Fmt.epr "A11: cold-start speedup %.1fx below the 20x target@." speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* A12 — incremental deltas: append+query vs full recompile+query      *)
(* ------------------------------------------------------------------ *)

let a12_copy_file src dst =
  let oc = open_out_bin dst in
  output_string oc (a11_read_file src);
  close_out oc

let a12 () =
  header "A12" "incremental updates: append+query vs recompile+query"
    "ISSUE 9 tentpole: updates are O(delta); loads replay only segments";
  Fmt.pr "A compiled social graph receives a delta of d triples. The@.";
  Fmt.pr "incremental path appends one segment (never rewriting the base)@.";
  Fmt.pr "and reloads through the overlay; the baseline recompiles the@.";
  Fmt.pr "whole store. Both end in a cold time-to-first-solution, and the@.";
  Fmt.pr "two stores are checked answer- and statistics-identical.@.@.";
  (* The ratio needs a base big enough that recompiling it dominates
     the fixed cold-query cost both paths share — the fast tier is
     larger here than in A11 for that reason. *)
  let people = if !fast then 2500 else 5000 in
  let g = Rdf.Generator.social ~seed:13 ~people in
  let base_triples = Rdf.Graph.triples g in
  let wds = Filename.temp_file "bench_a12" ".wds" in
  let inc = Filename.temp_file "bench_a12_inc" ".wds" in
  let whole = Filename.temp_file "bench_a12_full" ".wds" in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      (List.concat_map
         (fun p -> [ p; Storage.seg_path p 1; Storage.seg_path p 2 ])
         [ wds; inc; whole ])
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Storage.save (Encoded.Encoded_graph.of_graph g) wds;
  let query = "{ ?a p:knows ?b . OPTIONAL { ?b p:email ?m } }" in
  let pattern = Sparql.Parser.parse_exn query in
  let ttfs load =
    Encoded.Encoded_graph.clear_cache ();
    let graph = load () in
    let plan = Wd_core.Engine.plan pattern in
    let budget = Resource.Budget.make ~max_solutions:1 () in
    match Wd_core.Engine.solutions ~budget plan graph with
    | _ -> ()
    | exception Resource.Budget.Exhausted _ -> ()
  in
  (* Delta triples: fresh nodes knowing each other through [p:knows],
     so every append grows the dictionary and moves the query's answer
     set — the differential check below is not vacuous. *)
  let delta d =
    List.init d (fun i ->
        Rdf.Triple.make
          (Rdf.Term.iri (Printf.sprintf "urn:delta%d:%d" d i))
          (Rdf.Term.iri "p:knows")
          (Rdf.Term.iri (Printf.sprintf "urn:delta%d:%d" d (i + 1))))
  in
  (* [pairs] alternating append/recompile pairs per delta (the first
     path of a pair alternates too), gated on the median per-pair
     speedup: one slow run under a parallel test suite then moves a
     quartile, not the gate *)
  let pairs = 7 in
  Fmt.pr "%-8s %15s %18s %9s %15s@." "delta" "append+query(ms)"
    "recompile+query(ms)" "speedup" "speedup q1-q3";
  let speedups =
    List.map
      (fun d ->
        let adds = delta d in
        let append () =
          (* every run starts a fresh chain on a pristine base *)
          (try Sys.remove (Storage.seg_path inc 1) with Sys_error _ -> ());
          a12_copy_file wds inc;
          snd
            (time_once (fun () ->
                 ignore (Storage.append ~adds inc);
                 ttfs (fun () -> Storage.load_graph inc)))
        in
        let recompile () =
          snd
            (time_once (fun () ->
                 let g' = Rdf.Graph.of_triples (base_triples @ adds) in
                 Storage.save (Encoded.Encoded_graph.of_graph g') whole;
                 ttfs (fun () -> Storage.load_graph whole)))
        in
        let runs =
          List.init pairs (fun i ->
              if i mod 2 = 0 then
                let t_inc = append () in
                (t_inc, recompile ())
              else
                let t_full = recompile () in
                (append (), t_full))
        in
        let _, t_inc, _ = quartiles (List.map fst runs) in
        let _, t_full, _ = quartiles (List.map snd runs) in
        let q1, speedup, q3 =
          quartiles
            (List.map (fun (i, f) -> f /. Float.max i 1e-9) runs)
        in
        Fmt.pr "%-8d %15.3f %18.3f %8.1fx %7.1f-%.1fx@." d (ms t_inc)
          (ms t_full) speedup q1 q3;
        record ~experiment:"A12"
          ~metric:(Printf.sprintf "append_ms_%d" d)
          (ms t_inc);
        record ~experiment:"A12"
          ~metric:(Printf.sprintf "recompile_ms_%d" d)
          (ms t_full);
        record ~experiment:"A12" ~metric:(Printf.sprintf "speedup_%d" d) speedup;
        record ~experiment:"A12" ~metric:(Printf.sprintf "speedup_%d_q1" d) q1;
        record ~experiment:"A12" ~metric:(Printf.sprintf "speedup_%d_q3" d) q3;
        (d, speedup))
      [ 1; 10; 1000 ]
  in
  record ~experiment:"A12" ~metric:"graph_triples"
    (float (Rdf.Graph.cardinal g));
  (* Differential, on the largest delta (the chain and the recompiled
     store of the last timed round are still on disk): the overlay must
     be indistinguishable from the monolithic recompile. *)
  Encoded.Encoded_graph.clear_cache ();
  let full graph =
    Wd_core.Engine.solutions (Wd_core.Engine.plan pattern) graph
  in
  let reference = full (Storage.load_graph whole) in
  let got = full (Storage.load_graph inc) in
  if not (Sparql.Mapping.Set.equal reference got) then begin
    Fmt.epr "A12: overlay answers diverge from the recompiled store@.";
    exit 1
  end;
  record ~experiment:"A12" ~metric:"answers_agree" 1.0;
  let module E = Encoded.Encoded_graph in
  let mono = Storage.load whole and overlay = Storage.load inc in
  let dm = E.dictionary mono and dv = E.dictionary overlay in
  let stats_ok =
    ref
      (E.cardinal mono = E.cardinal overlay
      && E.distinct_subjects mono = E.distinct_subjects overlay
      && E.distinct_objects mono = E.distinct_objects overlay
      && E.distinct_predicates mono = E.distinct_predicates overlay)
  in
  (* planner statistics compared through terms: the two id spaces differ *)
  for id = 0 to Rdf.Dictionary.size dm - 1 do
    match Rdf.Dictionary.find dv (Rdf.Dictionary.term_of dm id) with
    | None -> stats_ok := false
    | Some vid ->
        let a = E.predicate_stats mono id
        and b = E.predicate_stats overlay vid in
        if
          (a.E.triples, a.E.distinct_subjects, a.E.distinct_objects)
          <> (b.E.triples, b.E.distinct_subjects, b.E.distinct_objects)
          || E.match_count mono E.unbound id E.unbound
             <> E.match_count overlay E.unbound vid E.unbound
        then stats_ok := false
  done;
  if not !stats_ok then begin
    Fmt.epr "A12: overlay planner statistics diverge from the recompile@.";
    exit 1
  end;
  record ~experiment:"A12" ~metric:"stats_agree" 1.0;
  (* compact round-trip: folding the chain must reproduce, bit for bit,
     the stamp a fresh compile of the same triples produces *)
  let { Storage.folded; compact_stamp } = Storage.compact inc in
  let fresh_stamp = (Storage.info whole).Storage.stamp in
  if folded <> 1 || compact_stamp <> fresh_stamp then begin
    Fmt.epr "A12: compact stamp %#x differs from fresh compile %#x@."
      compact_stamp fresh_stamp;
    exit 1
  end;
  record ~experiment:"A12" ~metric:"compact_stamp_equal" 1.0;
  Fmt.pr "@.compact(base + 1k segment) stamp == fresh compile stamp: ok@.";
  (* hard gate: small-delta updates must be >= 10x cheaper end to end,
     at the median of the alternating pairs. The 1k-delta point is
     informative under --fast (the base graph is small enough that
     recompiling it is itself cheap). *)
  List.iter
    (fun (d, s) ->
      if (d < 1000 || not !fast) && s < 10. then begin
        Fmt.epr
          "A12: median append speedup %.1fx at delta %d below the 10x target@."
          s d;
        exit 1
      end)
    speedups;
  Fmt.pr "@.incremental-update speedup at delta 1: %.1fx (target: >= 10x)@."
    (List.assoc 1 speedups)

(* ------------------------------------------------------------------ *)
(* A13 — pre-plan pruning ablation and canonical plan-cache keying     *)
(* ------------------------------------------------------------------ *)

let a13 () =
  header "A13" "semantic pruning: plan the residual, not the query"
    "ISSUE 10 tentpole: satisfiability-driven rewrites feed the planner";
  Fmt.pr "Queries with provably-dead subtrees (unsatisfiable OPT arms,@.";
  Fmt.pr "contradictory UNION branches, duplicate conjuncts, whole-pattern@.";
  Fmt.pr "contradictions). Pruning off: the query is evaluated as written@.";
  Fmt.pr "(the tractable engine if it is core, the algebra evaluator@.";
  Fmt.pr "otherwise — FILTERs are outside the engine's fragment). Pruning@.";
  Fmt.pr "on: Prune.run first, then the engine on the residual (or no@.";
  Fmt.pr "evaluation at all when the residual is Empty). Answers are@.";
  Fmt.pr "checked identical, and against the reference evaluator.@.@.";
  let people = if !fast then 150 else 400 in
  let g = Rdf.Generator.social ~seed:17 ~people in
  Fmt.pr "store: social graph, %d people, %d triples@.@." people
    (Rdf.Graph.cardinal g);
  let workloads =
    [
      ( "dead-opt-arm",
        "{ ?a p:knows ?b OPTIONAL { ?b p:email ?m FILTER (?m != ?m) } }" );
      ( "unsat-union-branch",
        "{ { ?a p:knows ?b . ?b p:email ?m FILTER (!BOUND(?a)) } UNION { ?a \
         p:knows ?b . ?b p:knows ?c } }" );
      ( "duplicate-conjuncts",
        "{ ?a p:knows ?b . ?a p:knows ?b . ?b p:knows ?c . ?b p:knows ?c }" );
      ( "dead-opt-plus-duplicates",
        "{ ?a p:knows ?b . ?a p:knows ?b OPTIONAL { ?b p:email ?m FILTER (?m \
         != ?m) } }" );
      ( "whole-query-contradiction",
        "{ ?a p:knows ?b . ?b p:email ?m FILTER (?m != ?m) }" );
    ]
  in
  let runs = if !fast then 3 else 5 in
  Fmt.pr "%-28s %14s %13s %9s %9s@." "workload" "pruned-off(ms)"
    "pruned-on(ms)" "speedup" "rewrites";
  let speedups =
    List.map
      (fun (name, text) ->
        let pattern = Sparql.Parser.parse_exn text in
        let off () =
          (* what answering the query as written costs: the engine when
             the text is already core, the algebra evaluator otherwise *)
          if Sparql.Algebra.is_core pattern then
            Wd_core.Engine.solutions (Wd_core.Engine.plan pattern) g
          else Sparql.Eval.eval pattern g
        in
        let on () =
          (* prune time included: the ablation measures the pipeline *)
          match (Analysis.Prune.run pattern).Analysis.Prune.outcome with
          | Analysis.Prune.Empty -> Sparql.Mapping.Set.empty
          | Analysis.Prune.Pattern residual ->
              Wd_core.Engine.solutions (Wd_core.Engine.plan residual) g
        in
        let answers_off, t_off = time_median ~runs off in
        let answers_on, t_on = time_median ~runs on in
        if not (Sparql.Mapping.Set.equal answers_off answers_on) then begin
          Fmt.epr "A13: pruning changed the answers of %s@." name;
          exit 1
        end;
        if
          not
            (Sparql.Mapping.Set.equal answers_on (Sparql.Eval.eval pattern g))
        then begin
          Fmt.epr "A13: %s diverges from the reference evaluator@." name;
          exit 1
        end;
        let rewrites =
          List.length (Analysis.Prune.run pattern).Analysis.Prune.rewrites
        in
        let speedup = t_off /. Float.max t_on 1e-9 in
        Fmt.pr "%-28s %14.3f %13.3f %8.1fx %9d@." name (ms t_off) (ms t_on)
          speedup rewrites;
        record ~experiment:"A13"
          ~metric:(Printf.sprintf "pruneoff_ms_%s" name)
          (ms t_off);
        record ~experiment:"A13"
          ~metric:(Printf.sprintf "pruneon_ms_%s" name)
          (ms t_on);
        record ~experiment:"A13"
          ~metric:(Printf.sprintf "speedup_%s" name)
          speedup;
        speedup)
      workloads
  in
  record ~experiment:"A13" ~metric:"answers_agree" 1.0;
  let median_speedup =
    let sorted = List.sort compare speedups in
    List.nth sorted (List.length sorted / 2)
  in
  record ~experiment:"A13" ~metric:"median_speedup" median_speedup;
  Fmt.pr "@.median pruning speedup: %.1fx (target: >= 1.2x)@." median_speedup;
  if median_speedup < 1.2 then begin
    Fmt.epr "A13: median pruning speedup %.2fx below the 1.2x target@."
      median_speedup;
    exit 1
  end;
  (* canonical plan-cache keying: spelling variants of the same query
     (renamed variables, reordered conjuncts, swapped UNION branches,
     flipped equalities) must collapse onto one cache entry. A raw-text
     key only ever hits on byte-identical repeats. *)
  let variants =
    [
      "{ ?a p:knows ?b . ?b p:email ?m }";
      "{ ?x p:knows ?y . ?y p:email ?e }";
      "{ ?b p:email ?m . ?a p:knows ?b }";
      "{ ?a p:knows ?b OPTIONAL { ?b p:email ?m } }";
      "{ ?s p:knows ?o OPTIONAL { ?o p:email ?mail } }";
      "{ { ?a p:knows ?b } UNION { ?a p:worksAt ?b } }";
      "{ { ?x p:worksAt ?y } UNION { ?x p:knows ?y } }";
      "{ ?a p:knows ?b FILTER (?a = ?b) }";
      "{ ?a p:knows ?b FILTER (?b = ?a) }";
      "{ ?q p:knows ?r FILTER (?q = ?r) }";
    ]
  in
  let canonical_groups = 4 in
  let seen_keys = Hashtbl.create 16 and seen_texts = Hashtbl.create 16 in
  let key_hits = ref 0 and text_hits = ref 0 in
  List.iter
    (fun text ->
      let canon = Analysis.Canonical.of_pattern (Sparql.Parser.parse_exn text) in
      if Hashtbl.mem seen_keys canon.Analysis.Canonical.key then incr key_hits
      else Hashtbl.add seen_keys canon.Analysis.Canonical.key ();
      if Hashtbl.mem seen_texts text then incr text_hits
      else Hashtbl.add seen_texts text ())
    variants;
  let n = List.length variants in
  let canonical_rate = float !key_hits /. float n in
  let raw_rate = float !text_hits /. float n in
  Fmt.pr "@.canonical plan-cache keying over %d variant spellings:@." n;
  Fmt.pr "  canonical-key hit rate %.2f (%d entries), raw-text hit rate %.2f@."
    canonical_rate (Hashtbl.length seen_keys) raw_rate;
  record ~experiment:"A13" ~metric:"canonical_hit_rate" canonical_rate;
  record ~experiment:"A13" ~metric:"canonical_entries"
    (float (Hashtbl.length seen_keys));
  record ~experiment:"A13" ~metric:"raw_text_hit_rate" raw_rate;
  if Hashtbl.length seen_keys <> canonical_groups then begin
    Fmt.epr "A13: %d canonical entries for %d equivalence groups@."
      (Hashtbl.length seen_keys) canonical_groups;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  header "BECHAMEL" "micro-benchmarks (one Test.make per experiment)"
    "OLS-estimated per-run cost of each experiment's inner operation";
  let open Bechamel in
  (* shared fixtures *)
  let t1_pattern =
    Query_families.random_wd_pattern ~seed:1 ~triples:7 ~vars:7 ~preds:2
      ~depth:3 ~union:2
  in
  let t1_graph =
    Rdf.Generator.random_graph ~seed:11 ~n:8 ~predicates:[ "q0"; "q1" ] ~m:30
  in
  let t1_forest = Wdpt.Pattern_forest.of_algebra t1_pattern in
  let f1_forest = Query_families.f_k 8 in
  let f1_g, f1_mu = Graph_families.tournament_instance ~seed:1 ~n:20 in
  let f2_forest = [ Query_families.clique_child 4 ] in
  let f2_g, f2_mu = Graph_families.tournament_instance ~seed:3 ~n:10 in
  let t2_forest = Query_families.f_k 4 in
  let f3_g, f3_mu = Graph_families.tournament_instance ~seed:2 ~n:16 in
  let t3_h = Hardness.Clique.random_graph ~seed:1 ~n:6 ~edge_prob:0.4 in
  let t4_s = Testutil_lite.gtgraph_of_seed 10 in
  let t4_graph = Testutil_lite.graph_of_seed 11 in
  let t4_mu = Testutil_lite.mu_for t4_s t4_graph 12 in
  let f4_g = Testutil_lite.ugraph_of_seed ~n:12 5 in
  let f5_g = Rdf.Generator.social ~seed:7 ~people:100 in
  let f5_query =
    Sparql.Parser.parse_exn "{ ?a p:knows ?b . OPTIONAL { ?b p:email ?m } }"
  in
  let f5_forest = Wdpt.Pattern_forest.of_algebra f5_query in
  let tests =
    [
      Test.make ~name:"T1/algebra-eval"
        (Staged.stage (fun () -> Sparql.Eval.eval t1_pattern t1_graph));
      Test.make ~name:"T1/wdpf-enumeration"
        (Staged.stage (fun () -> Wdpt.Semantics.solutions t1_forest t1_graph));
      Test.make ~name:"F1/naive-check-F8"
        (Staged.stage (fun () -> Wdpt.Semantics.check f1_forest f1_g f1_mu));
      Test.make ~name:"F1/pebble-check-F8"
        (Staged.stage (fun () -> Wd_core.Pebble_eval.check ~k:1 f1_forest f1_g f1_mu));
      Test.make ~name:"F2/pebble2-clique-child4"
        (Staged.stage (fun () -> Wd_core.Pebble_eval.check ~k:1 f2_forest f2_g f2_mu));
      Test.make ~name:"F2/pebble-bw-clique-child4"
        (Staged.stage (fun () -> Wd_core.Pebble_eval.check ~k:3 f2_forest f2_g f2_mu));
      Test.make ~name:"T2/domination-width-F4"
        (Staged.stage (fun () -> Wd_core.Domination_width.of_forest t2_forest));
      Test.make ~name:"F3/pebble-check-F9-n16"
        (Staged.stage (fun () ->
             Wd_core.Pebble_eval.check ~k:1 (Query_families.f_k 9) f3_g f3_mu));
      Test.make ~name:"T3/reduction-build-k3"
        (Staged.stage (fun () -> Hardness.Reduction.build ~k:3 ~h:t3_h));
      Test.make ~name:"T4/pebble-game-single"
        (Staged.stage (fun () -> Pebble.Pebble_game.wins ~k:2 t4_s ~mu:t4_mu t4_graph));
      Test.make ~name:"F4/exact-treewidth-n12"
        (Staged.stage (fun () -> Graphtheory.Treewidth.treewidth f4_g));
      Test.make ~name:"T5/translate"
        (Staged.stage (fun () -> Wdpt.Pattern_forest.of_algebra t1_pattern));
      Test.make ~name:"F5/enumeration-social100"
        (Staged.stage (fun () -> Wdpt.Semantics.solutions f5_forest f5_g));
    ]
  in
  let grouped = Test.make_grouped ~name:"wdsparql" tests in
  let quota = if !fast then 0.2 else 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> est
          | _ -> nan
        in
        let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
        (name, estimate, r2) :: acc)
      results []
    |> List.sort compare
  in
  Fmt.pr "%-38s %16s %8s@." "benchmark" "ns/run" "r²";
  List.iter
    (fun (name, est, r2) -> Fmt.pr "%-38s %16.0f %8.3f@." name est r2)
    rows

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("T1", t1); ("F1", f1); ("F2", f2); ("T2", t2); ("F3", f3);
    ("T3", t3); ("T4", t4); ("F4", f4); ("T5", t5); ("F5", f5);
    ("F6", f6); ("F7", f7); ("T6", t6); ("T7", t7);
    ("A2", a2); ("A3", a3); ("A4", a4); ("A5", a5); ("A6", a6);
    ("A7", a7); ("A10", a10); ("A11", a11); ("A12", a12); ("A13", a13);
    ("bechamel", bechamel_suite);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> List.rev acc
    | ("--fast" | "fast") :: rest ->
        fast := true;
        parse acc rest
    | "--json" :: rest ->
        json_out := Some "BENCH_pr10.json";
        parse acc rest
    | "--json-out" :: file :: rest ->
        json_out := Some file;
        parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] args in
  let selected =
    match args with
    | [] -> experiments
    | names ->
        List.filter
          (fun (id, _) ->
            List.exists (fun a -> String.lowercase_ascii a = String.lowercase_ascii id) names)
          experiments
  in
  if selected = [] then begin
    Fmt.epr "unknown experiment; available: %s@."
      (String.concat ", " (List.map fst experiments));
    exit 1
  end;
  let total_t0 = Unix.gettimeofday () in
  List.iter (fun (_, run) -> run ()) selected;
  Fmt.pr "@.total benchmark time: %.1fs@." (Unix.gettimeofday () -. total_t0);
  Option.iter write_json !json_out
