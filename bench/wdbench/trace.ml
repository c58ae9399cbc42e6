(* The traced run: replays a prefix of the same generated inputs
   in-process and times the calls into each layer's public functions,
   plus the two front doors (HTTP and CLI) and the storage writers on the
   same inputs. Spans live in memory — name, start, end, parent, request
   id — and are written out with the per-layer summary at the end. The
   end-to-end numbers never come from here. *)

module P = Proc
module R = Report
module J = Analysis.Json
module Budget = Resource.Budget
module Engine = Wd_core.Engine
module Plan_cache = Wd_core.Plan_cache
module Canonical = Analysis.Canonical

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (* -1 at the top *)
  start : float;
  stop : float;
}

type tracer = {
  mutable on : bool;
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;
  mutable current : int;  (* the request being replayed *)
}

let tracer () = { on = true; spans = []; next = 0; stack = []; current = 0 }

let span tr name f =
  if not tr.on then f ()
  else begin
    let id = tr.next and parent = match tr.stack with p :: _ -> p | [] -> -1 in
    tr.next <- id + 1;
    tr.stack <- id :: tr.stack;
    let start = P.now () in
    Fun.protect
      ~finally:(fun () ->
        tr.stack <- List.tl tr.stack;
        tr.spans <- { id; name; req = tr.current; parent; start; stop = P.now () } :: tr.spans)
      f
  end

(* A fresh, never-tripping budget whose [spent] counts the call's ticks
   (the shared unlimited budget does not count). *)
let fresh () = Budget.make ~fuel:max_int ()

(* ------------------------------------------------------------------ *)
(* The in-process pipeline: the server's path for a plan-cache miss     *)
(* ------------------------------------------------------------------ *)

type outcome = {
  key : string;  (* canonical key: the server's plan-cache key *)
  width_ticks : int;
  plan_ticks : int;
  solutions_ticks : int;
  candidates : int;
  stats : Plan_cache.stats option;
  answers : Sparql.Mapping.Set.t;  (* in the query's own variable names *)
}

let pipeline tr g text =
  span tr "request" @@ fun () ->
  let pattern = span tr "sparql.parse" (fun () -> Sparql.Parser.parse_exn text) in
  let canon = span tr "analysis.canonical" (fun () -> Canonical.of_pattern pattern) in
  let residual =
    span tr "analysis.prune" (fun () ->
        match (Analysis.Prune.run canon.Canonical.pattern).Analysis.Prune.outcome with
        | Analysis.Prune.Pattern r -> r
        | Analysis.Prune.Empty -> canon.Canonical.pattern)
  in
  let wb = fresh () and pb = fresh () and sb = fresh () in
  let hints =
    span tr "analysis.width_est" (fun () ->
        if Sparql.Algebra.is_core residual then
          Analysis.Width_est.hints
            (Analysis.Width_est.estimate ~budget:wb
               (Wdpt.Pattern_forest.of_algebra residual))
        else Engine.no_hints)
  in
  let plan =
    span tr "core.plan" (fun () -> Engine.plan ~budget:pb ~hints ~plan_capacity:1 residual)
  in
  ignore (span tr "core.solutions_cold" (fun () -> Engine.solutions_stats plan g));
  let candidates =
    span tr "encoded.hom" (fun () ->
        List.fold_left
          (fun acc tree ->
            acc
            + Encoded.Encoded_hom.count
                (Plan_cache.node_source plan.Engine.cache g tree Wdpt.Pattern_tree.root))
          0 plan.Engine.forest)
  in
  let answers, stats =
    span tr "core.solutions_warm" (fun () -> Engine.solutions_stats ~budget:sb plan g)
  in
  {
    key = canon.Canonical.key;
    width_ticks = Budget.spent wb;
    plan_ticks = Budget.spent pb;
    solutions_ticks = Budget.spent sb;
    candidates;
    stats;
    answers = Sparql.Mapping.Set.map (Canonical.rename_back canon) answers;
  }

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let duration s = s.stop -. s.start

(* Durations of the spans called [name], in request order. *)
let durations spans name =
  List.filter (fun s -> s.name = name) spans
  |> List.stable_sort (fun a b -> compare a.req b.req)
  |> List.map duration

let ms xs = List.map (fun x -> x *. 1000.) xs
let med xs = Stats.median xs

let ratio hits total = if total = 0 then 0. else float hits /. float total

(* Total duration of each span's children, by parent id. *)
let child_time spans =
  let t = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace t s.parent
        (duration s +. Option.value ~default:0. (Hashtbl.find_opt t s.parent)))
    spans;
  fun id -> Option.value ~default:0. (Hashtbl.find_opt t id)

(* Per span name: count, total duration, and self time — duration minus
   the time its children cover. *)
let self_times spans =
  let kids = child_time spans and totals = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let n, d, st = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt totals s.name) in
      Hashtbl.replace totals s.name (n + 1, d +. duration s, st +. duration s -. kids s.id))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [] |> List.sort compare

let write_trace path spans summary =
  let span_json s =
    J.Obj
      [ ("id", J.Int s.id); ("name", J.String s.name); ("req", J.Int s.req);
        ("parent", J.Int s.parent); ("start", J.Float s.start); ("end", J.Float s.stop) ]
  in
  let layer (name, (n, total, self)) =
    ( name,
      J.Obj
        [ ("count", J.Int n); ("total_ms", J.Float (total *. 1000.));
          ("self_ms", J.Float (self *. 1000.)) ] )
  in
  Gen.write_file path
    (J.to_string
       (J.Obj
          [ ("layers", J.Obj (List.map layer (self_times spans)));
            ("metrics", summary);
            ("spans", J.List (List.rev_map span_json spans)) ]))

(* A least-recently-used set of canonical keys, the size of the server's
   plan cache: which replayed requests the server answers from it. *)
let lru_hits ~capacity keys =
  let stamp = Hashtbl.create 64 in
  List.mapi
    (fun i k ->
      let hit = Hashtbl.mem stamp k in
      Hashtbl.replace stamp k i;
      if Hashtbl.length stamp > capacity then begin
        let oldest, _ =
          Hashtbl.fold
            (fun k s (bk, bs) -> if s < bs then (k, s) else (bk, bs))
            stamp ("", max_int)
        in
        Hashtbl.remove stamp oldest
      end;
      hit)
    keys

let plan_cache_capacity = 64

(* ------------------------------------------------------------------ *)
(* The traced run of one workload                                       *)
(* ------------------------------------------------------------------ *)

let prefix_length = function Gen.Full -> 200 | Gen.Smoke -> 20
let cli_prefix = function Gen.Full -> 20 | Gen.Smoke -> 3

let run (ctx : Run.ctx) w =
  let t_start = P.now () in
  let inp = Run.prepare ctx w in
  let texts =
    match w with
    | Run.Frontier -> List.map (fun (q, _) -> q.Gen.text) inp.Run.frontier
    | _ ->
        List.init (prefix_length ctx.scale) (fun i ->
            inp.Run.pool.Gen.texts.(inp.Run.pool.Gen.stream.(i)))
  in
  let g_ref = Lazy.force inp.Run.graph in
  let expected = Hashtbl.create 64 in
  List.iter
    (fun t ->
      if not (Hashtbl.mem expected t) then Hashtbl.add expected t (Check.reference g_ref t))
    texts;
  let right text got =
    match Hashtbl.find expected text with Ok want -> Sparql.Mapping.Set.equal want got | Error _ -> false
  in
  ignore (Run.cli ctx [ "compile"; inp.Run.data; "-o"; inp.Run.store; "--force" ]);
  let tr = tracer () in
  let g = Storage.load_graph inp.Run.store in
  (* in-process replay: a warm-up pass, then untraced and traced *)
  let replay () =
    List.mapi
      (fun i text ->
        tr.current <- i;
        pipeline tr g text)
      texts
  in
  let timed_pass on =
    tr.on <- on;
    let t0 = P.now () in
    let outs = replay () in
    (P.now () -. t0, outs)
  in
  ignore (timed_pass false);
  let untraced, _ = timed_pass false in
  let traced, outs = timed_pass true in
  List.iter2
    (fun text o -> Run.note ctx (right text o.answers) (fun () -> "in-process answer differs: " ^ text))
    texts outs;
  let col name = Array.of_list (durations tr.spans name) in
  let parse = col "sparql.parse" and canonical = col "analysis.canonical"
  and prune = col "analysis.prune" and width = col "analysis.width_est"
  and plan = col "core.plan" and cold = col "core.solutions_cold"
  and hom = col "encoded.hom" and warm = col "core.solutions_warm" in
  let sum f = List.fold_left (fun acc o -> match o.stats with Some s -> acc + f s | None -> acc) 0 outs in
  let pebble f = sum (fun s -> f s.Plan_cache.pebble) in
  (* the CLI's path per request, and the server's: a plan-cache hit skips
     prune, width, plan and compile *)
  let cli_path i = parse.(i) +. prune.(i) +. width.(i) +. plan.(i) +. cold.(i) in
  let server_path =
    List.mapi
      (fun i hit -> if hit then parse.(i) +. canonical.(i) +. warm.(i) else canonical.(i) +. cli_path i)
      (lru_hits ~capacity:plan_cache_capacity (List.map (fun o -> o.key) outs))
  in
  (* HTTP: the same prefix, one request at a time *)
  let server = P.start_server ~stderr:ctx.log ctx.bin (Run.serve_args inp.Run.store) in
  let http =
    List.mapi
      (fun i text ->
        tr.current <- i;
        let resp = span tr "server.request" (fun () -> P.post_sparql ~port:server.P.port text) in
        let ok, size =
          match resp with
          | Some (200, body) ->
              (Option.fold ~none:false ~some:(right text) (Check.of_json body), String.length body)
          | _ -> (false, 0)
        in
        Run.note ctx ok (fun () -> "HTTP answer differs: " ^ text);
        float size /. 1024.)
      texts
  in
  let stats =
    match P.get ~port:server.P.port "/stats" with
    | Some (200, body) -> Result.to_option (J.of_string body)
    | _ -> None
  in
  Run.note ctx (P.stop_server server = 0) (fun () -> "server did not exit cleanly");
  let plan_counter key =
    Option.value ~default:0
      (Option.bind stats (fun s ->
           Option.bind (J.member "plan_cache" s) (fun p -> Option.bind (J.member key p) J.to_int)))
  in
  let compiled = plan_counter "compiled" and entry_hits = plan_counter "entry_hits" in
  (* CLI: a shorter prefix through `wdsparql eval` *)
  let cli_texts =
    List.filteri (fun i _ -> w = Run.Frontier || i < cli_prefix ctx.scale) texts
  in
  let cli_over =
    List.mapi
      (fun i text ->
        tr.current <- i;
        let r =
          span tr "cli.eval" (fun () ->
              P.run ~stderr:ctx.log ctx.bin [ "eval"; "--store"; inp.Run.store; "-q"; text ])
        in
        Run.note ctx
          (r.P.code = 0 && Option.fold ~none:false ~some:(right text) (Check.of_cli r.P.out))
          (fun () -> "CLI answer differs: " ^ text);
        r.P.wall -. cli_path i)
      cli_texts
  in
  (* storage writers: the workload's batches, in-process; a load after
     every append, as the server's reload does *)
  let written = ref 0 and chain = ref 0 and chain_max = ref 0 in
  List.iteri
    (fun b (bf : Run.batch_file) ->
      tr.current <- b;
      let triples = List.map Gen.triple_of in
      (match
         span tr "storage.append" (fun () ->
             Storage.append ~adds:(triples bf.batch.Gen.adds) ~dels:(triples bf.batch.Gen.dels)
               inp.Run.store)
       with
      | Some r -> written := !written + Run.file_size r.Storage.app_file
      | None -> Run.note ctx false (fun () -> "in-process append wrote nothing"));
      incr chain;
      chain_max := max !chain_max !chain;
      ignore (span tr "storage.load" (fun () -> Storage.load_graph inp.Run.store));
      if (b + 1) mod Gen.compact_every ctx.scale = 0 then begin
        ignore (span tr "storage.compact" (fun () -> Storage.compact inp.Run.store));
        written := !written + Run.file_size inp.Run.store;
        chain := 0
      end)
    inp.Run.batches;
  let batch_bytes = List.fold_left (fun acc bf -> acc + bf.Run.bytes) 0 inp.Run.batches in
  let violations =
    let kids = child_time tr.spans in
    List.filter (fun s -> kids s.id > duration s +. 1e-9) tr.spans
  in
  Run.note ctx (violations = []) (fun () ->
      Printf.sprintf "%d spans whose children outlast them" (List.length violations));
  let int_med f = med (List.map (fun o -> float (f o)) outs) in
  let med_ms name = med (ms (durations tr.spans name)) in
  let arr_med a = med (Array.to_list a) in
  let m = R.scalar in
  let metrics =
    [
      m "sparql.parse_us" "us" (arr_med parse *. 1e6);
      m "analysis.canonical_us" "us" (arr_med canonical *. 1e6);
      m "analysis.prune_us" "us" (arr_med prune *. 1e6);
      m "analysis.width_est_ms" "ms" (arr_med width *. 1000.);
      m "analysis.width_est_ticks" "ticks" (int_med (fun o -> o.width_ticks));
      m "core.plan_ms" "ms" (arr_med plan *. 1000.);
      m "core.plan_ticks" "ticks" (int_med (fun o -> o.plan_ticks));
      m "core.compile_ms" "ms" (arr_med (Array.map2 ( -. ) cold warm) *. 1000.);
      m "optimizer.decision_hit_ratio" "ratio"
        (ratio (sum (fun s -> s.Plan_cache.decision_hits))
           (sum (fun s -> s.Plan_cache.decision_hits + s.Plan_cache.decision_misses)));
      m "encoded.hom_ms" "ms" (arr_med hom *. 1000.);
      m "encoded.hom_candidates" "count" (int_med (fun o -> o.candidates));
      m "core.solutions_warm_ms" "ms" (arr_med warm *. 1000.);
      m "core.solutions_ticks" "ticks" (int_med (fun o -> o.solutions_ticks));
      m "core.maximality_ms" "ms" (arr_med (Array.map2 ( -. ) warm hom) *. 1000.);
      m "core.verdict_hit_ratio" "ratio"
        (ratio (pebble (fun p -> p.Wd_core.Pebble_cache.hits))
           (pebble (fun p -> p.Wd_core.Pebble_cache.hits + p.Wd_core.Pebble_cache.misses)));
      m "core.pebble_games_compiled" "count"
        (int_med (fun o ->
             match o.stats with Some s -> s.Plan_cache.pebble.Wd_core.Pebble_cache.compiled | None -> 0));
      m "server.plan_hit_ratio" "ratio" (ratio entry_hits (entry_hits + compiled));
      m "server.plans_compiled_per_req" "ratio" (ratio compiled (List.length texts));
      m "server.overhead_ms" "ms" (med_ms "server.request" -. med (ms server_path));
      m "server.response_kb" "KB" (med http);
      m "storage.load_ms" "ms" (med_ms "storage.load");
      m "storage.append_ms" "ms" (med_ms "storage.append");
      m "storage.compact_ms" "ms" (med_ms "storage.compact");
      m "storage.chain_len_max" "count" (float !chain_max);
      m "storage.bytes_written" "B" (float !written);
      m "storage.write_amp" "ratio" (float !written /. float batch_bytes);
      m "cli.overhead_ms" "ms" (med (ms cli_over));
      m "trace.overhead_frac" "fraction" ((traced -. untraced) /. untraced);
    ]
  in
  write_trace
    (Filename.concat ctx.dir "wdbench-trace.json")
    tr.spans
    (J.Obj (List.map (fun x -> (x.R.name, J.Float x.R.value)) metrics));
  Unix.close ctx.log;
  {
    R.workload = Run.name w;
    seed = ctx.seed;
    seconds = P.now () -. t_start;
    attempted = ctx.attempted;
    failed = ctx.failed;
    errors = ctx.errors;
    metrics;
    info =
      [ ("inputs_digest", J.String inp.Run.digest); ("requests", J.Int (List.length texts));
        ("spans", J.Int (List.length tr.spans)) ];
  }
