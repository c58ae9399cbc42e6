(* PR 6: replayable workload driver for the endpoint (lib/server).

   Runs the server in-process and drives it over real loopback sockets:

   - [steady]            light load, baseline p50/p99 and throughput;
   - [overload_shed_on]  2x overload with the watermarks armed — excess
                         is shed promptly with 503, the p99 of served
                         requests stays bounded;
   - [overload_shed_off] the same offered load with the watermarks
                         effectively disabled — everything queues, the
                         tail latency shows why shedding exists;
   - [faults]            the deterministic fault barrage: every injected
                         kind, counters reconciled exactly against the
                         schedule, then a control query and an fd-leak
                         check prove the pool survived.

     dune exec bench/server_bench.exe -- --json-out BENCH_pr6.json
*)

module Io = Wd_server.Io
module Faults = Wd_server.Faults
module Admission = Wd_server.Admission
module Server = Wd_server.Server
module Json = Analysis.Json

let fast = ref false
let json_out : string option ref = ref None

(* ------------------------------------------------------------------ *)
(* JSON recording (same schema as bench/main.ml)                       *)
(* ------------------------------------------------------------------ *)

let records : (string * string * float) list ref = ref []

let record ~experiment ~metric value =
  records := (experiment, metric, value) :: !records

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

let write_json file =
  let ordered = List.rev !records in
  let experiments =
    List.fold_left
      (fun acc (e, _, _) -> if List.mem e acc then acc else acc @ [ e ])
      [] ordered
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema_version\": 1,\n  \"pr\": \"pr9\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"host_cores\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf (Printf.sprintf "  \"fast\": %b,\n" !fast);
  Buffer.add_string buf "  \"experiments\": {\n";
  List.iteri
    (fun i e ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": {\n      \"metrics\": {\n" e);
      let metrics = List.filter (fun (e', _, _) -> e' = e) ordered in
      List.iteri
        (fun j (_, m, v) ->
          Buffer.add_string buf
            (Printf.sprintf "        \"%s\": %s%s\n" m (json_number v)
               (if j = List.length metrics - 1 then "" else ",")))
        metrics;
      Buffer.add_string buf
        (Printf.sprintf "      }\n    }%s\n"
           (if i = List.length experiments - 1 then "" else ",")))
    experiments;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  (* self-validation: the schema marker and every experiment survive a
     re-read, so BENCH_*.json drift is a hard failure *)
  let ic = open_in file in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let ok =
    Astring.String.is_infix ~affix:"\"schema_version\": 1" contents
    && List.for_all
         (fun e ->
           Astring.String.is_infix ~affix:(Printf.sprintf "\"%s\": {" e)
             contents)
         experiments
  in
  if not ok then begin
    Fmt.epr "JSON self-validation failed for %s@." file;
    exit 1
  end;
  Fmt.pr "@.wrote %s (%d experiments, %d metrics)@." file
    (List.length experiments) (List.length ordered)

(* ------------------------------------------------------------------ *)
(* A tiny blocking HTTP client                                         *)
(* ------------------------------------------------------------------ *)

type outcome = Status of int | Eof

(* One request over a fresh loopback connection; the server closes
   every connection, so read-to-EOF terminates. *)
let http_request ~port raw =
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
      (try send 0 with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
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

let status_of_response raw =
  if raw = "" then Eof
  else
    match String.split_on_char ' ' raw with
    | _ :: code :: _ -> (
        match int_of_string_opt code with
        | Some s -> Status s
        | None -> Eof)
    | _ -> Eof

let query = "{ ?a p:knows ?b . OPTIONAL { ?b p:email ?m } }"

let sparql_request q =
  Printf.sprintf "POST /sparql HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
    (String.length q) q

(* ------------------------------------------------------------------ *)
(* Closed-loop client fleet                                            *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable ok : int;
  mutable shed : int;  (* 503 *)
  mutable timeout : int;  (* 408 *)
  mutable bad : int;  (* 400 *)
  mutable failed : int;  (* 500 *)
  mutable eof : int;
  mutable other : int;
  mutable latencies_ok : float list;  (* seconds, 200s only *)
}

let new_tally () =
  {
    ok = 0;
    shed = 0;
    timeout = 0;
    bad = 0;
    failed = 0;
    eof = 0;
    other = 0;
    latencies_ok = [];
  }

let merge_tallies ts =
  let m = new_tally () in
  List.iter
    (fun t ->
      m.ok <- m.ok + t.ok;
      m.shed <- m.shed + t.shed;
      m.timeout <- m.timeout + t.timeout;
      m.bad <- m.bad + t.bad;
      m.failed <- m.failed + t.failed;
      m.eof <- m.eof + t.eof;
      m.other <- m.other + t.other;
      m.latencies_ok <- t.latencies_ok @ m.latencies_ok)
    ts;
  m

(* [clients] threads issue [total] requests back to back (closed loop);
   request payloads come from [payload i] on the 1-based issue number. *)
let run_fleet ~port ~clients ~total payload =
  let next = Atomic.make 1 in
  let tallies = ref [] and tallies_lock = Mutex.create () in
  let worker () =
    let t = new_tally () in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i <= total then begin
        let t0 = Unix.gettimeofday () in
        let response =
          try http_request ~port (payload i)
          with Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ""
        in
        let dt = Unix.gettimeofday () -. t0 in
        (match status_of_response response with
        | Status 200 ->
            t.ok <- t.ok + 1;
            t.latencies_ok <- dt :: t.latencies_ok
        | Status 503 -> t.shed <- t.shed + 1
        | Status 408 -> t.timeout <- t.timeout + 1
        | Status 400 -> t.bad <- t.bad + 1
        | Status 500 -> t.failed <- t.failed + 1
        | Status _ -> t.other <- t.other + 1
        | Eof -> t.eof <- t.eof + 1);
        go ()
      end
    in
    go ();
    Mutex.lock tallies_lock;
    tallies := t :: !tallies;
    Mutex.unlock tallies_lock
  in
  let started = Unix.gettimeofday () in
  let threads = List.init clients (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  (merge_tallies !tallies, Unix.gettimeofday () -. started)

let percentile q sorted =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1))

let latency_stats latencies =
  let a = Array.of_list latencies in
  Array.sort compare a;
  (percentile 0.50 a *. 1000., percentile 0.99 a *. 1000.)

(* ------------------------------------------------------------------ *)
(* Harness assertions                                                  *)
(* ------------------------------------------------------------------ *)

let failures = ref 0

let expect msg ok =
  if ok then Fmt.pr "  ok: %s@." msg
  else begin
    incr failures;
    Fmt.epr "  FAILED: %s@." msg
  end

let expect_eq msg expected actual =
  expect (Printf.sprintf "%s (expected %d, got %d)" msg expected actual)
    (expected = actual)

(* ------------------------------------------------------------------ *)
(* Server configs                                                      *)
(* ------------------------------------------------------------------ *)

let graph = lazy (Rdf.Generator.social ~seed:5 ~people:30)

let base_config ?(workers = 4) ?(queue = 64) ?(inflight = 64)
    ?(io_timeout = 2.) ?(faults = Faults.none) () =
  {
    Server.graph = Lazy.force graph;
    reload = None;
    host = "127.0.0.1";
    port = 0;
    workers;
    queue_capacity = queue;
    admission =
      {
        Admission.request_fuel = 5_000_000;
        request_timeout = 10.;
        max_solutions = None;
        global_fuel = None;
        refill_rate = 0.;
        max_inflight = inflight;
      };
    max_request_bytes = 1 lsl 16;
    io_timeout;
    faults;
    plan_capacity = 8;
  }

let fault_counter stats name =
  match Json.member "faults" stats with
  | Some f ->
      Option.value ~default:(-1) (Option.bind (Json.member name f) Json.to_int)
  | None -> -1

(* ------------------------------------------------------------------ *)
(* Scenario: steady state                                              *)
(* ------------------------------------------------------------------ *)

let scenario_steady () =
  Fmt.pr "@.== steady: light load baseline ==@.";
  let n = if !fast then 60 else 400 in
  let t = Server.start (base_config ()) in
  let port = Server.port t in
  let tally, elapsed =
    run_fleet ~port ~clients:2 ~total:n (fun _ -> sparql_request query)
  in
  Server.initiate_drain t;
  ignore (Server.join t);
  expect_eq "every steady request served with 200" n tally.ok;
  let p50, p99 = latency_stats tally.latencies_ok in
  let rps = float n /. elapsed in
  Fmt.pr "  %d requests, %.0f req/s, p50 %.2fms, p99 %.2fms@." n rps p50 p99;
  record ~experiment:"steady" ~metric:"requests" (float n);
  record ~experiment:"steady" ~metric:"throughput_rps" rps;
  record ~experiment:"steady" ~metric:"p50_ms" p50;
  record ~experiment:"steady" ~metric:"p99_ms" p99;
  record ~experiment:"steady" ~metric:"shed_rate" 0.

(* ------------------------------------------------------------------ *)
(* Scenario: 2x overload, shedding on vs off (the ablation)            *)
(* ------------------------------------------------------------------ *)

(* The same offered load — a closed-loop fleet with 8x more clients
   than the server has workers — against armed watermarks (tight queue
   and in-flight caps) and against effectively disabled ones. *)
let overload_graph = lazy (Rdf.Generator.social ~seed:7 ~people:80)

let overload_run ~experiment ~queue ~inflight =
  let workers = 2 and clients = 32 in
  let n = if !fast then 160 else 600 in
  let t =
    Server.start
      {
        (base_config ~workers ~queue ~inflight ()) with
        Server.graph = Lazy.force overload_graph;
        reload = None;
      }
  in
  let port = Server.port t in
  let tally, elapsed =
    run_fleet ~port ~clients ~total:n (fun _ -> sparql_request query)
  in
  Server.initiate_drain t;
  ignore (Server.join t);
  expect_eq
    (Printf.sprintf "%s: every request got a definite outcome" experiment)
    n
    (tally.ok + tally.shed + tally.timeout + tally.bad + tally.failed
   + tally.eof + tally.other);
  let p50, p99 = latency_stats tally.latencies_ok in
  let shed_rate = float tally.shed /. float n in
  let rps = float tally.ok /. elapsed in
  Fmt.pr "  %s: %d ok, %d shed (%.0f%%), p50 %.2fms, p99 %.2fms@." experiment
    tally.ok tally.shed (shed_rate *. 100.) p50 p99;
  record ~experiment ~metric:"requests" (float n);
  record ~experiment ~metric:"served" (float tally.ok);
  record ~experiment ~metric:"shed" (float tally.shed);
  record ~experiment ~metric:"shed_rate" shed_rate;
  record ~experiment ~metric:"throughput_rps" rps;
  record ~experiment ~metric:"p50_ms" p50;
  record ~experiment ~metric:"p99_ms" p99;
  (tally, p99)

let scenario_overload () =
  Fmt.pr "@.== overload: 2x offered load, watermarks on vs off ==@.";
  let on_tally, p99_on =
    overload_run ~experiment:"overload_shed_on" ~queue:4 ~inflight:4
  in
  let off_tally, p99_off =
    overload_run ~experiment:"overload_shed_off" ~queue:100_000
      ~inflight:100_000
  in
  expect "watermarks on: overload is shed, not queued" (on_tally.shed > 0);
  expect "watermarks on: healthy requests still served" (on_tally.ok > 0);
  expect_eq "watermarks off: nothing shed" 0 off_tally.shed;
  (* the headline: with shedding, the p99 of served requests stays
     bounded; without it every request pays the full queue *)
  record ~experiment:"ablation" ~metric:"p99_ms_shed_on" p99_on;
  record ~experiment:"ablation" ~metric:"p99_ms_shed_off" p99_off;
  record ~experiment:"ablation" ~metric:"p99_ratio_off_over_on"
    (if p99_on > 0. then p99_off /. p99_on else 0.);
  Fmt.pr "  ablation: p99 on=%.2fms off=%.2fms@." p99_on p99_off

(* ------------------------------------------------------------------ *)
(* Scenario: the fault barrage                                         *)
(* ------------------------------------------------------------------ *)

let spec_string = "disconnect:11,slow:9,malformed:5,starve:7,poison:13"

let scenario_faults () =
  Fmt.pr "@.== faults: deterministic barrage (%s) ==@." spec_string;
  let faults =
    match Faults.parse spec_string with
    | Ok f -> f
    | Error e ->
        Fmt.epr "bad fault spec: %s@." e;
        exit 1
  in
  (* grow [n] until the control request (index n+1) is fault-free, so
     the post-barrage liveness probe has a predictable fate *)
  let n =
    let n = ref (if !fast then 220 else 2600) in
    while Faults.for_request faults (!n + 1) <> None do
      incr n
    done;
    !n
  in
  (* the schedule is a pure function of the accept index: predict every
     counter before the run, reconcile after *)
  let predicted k =
    let c = ref 0 in
    for i = 1 to n do
      if Faults.for_request faults i = Some k then incr c
    done;
    !c
  in
  let p_disconnect = predicted Faults.Disconnect
  and p_slow = predicted Faults.Slow
  and p_malformed = predicted Faults.Malformed
  and p_starve = predicted Faults.Starve
  and p_poison = predicted Faults.Poison in
  let total_faults =
    p_disconnect + p_slow + p_malformed + p_starve + p_poison
  in
  Fmt.pr "  %d requests, %d injected faults scheduled@." n total_faults;
  if not !fast then
    expect "the barrage injects at least 1000 faults" (total_faults >= 1000);
  let fd_baseline = Io.live () in
  let t =
    Server.start (base_config ~workers:8 ~io_timeout:0.08 ~faults ())
  in
  let port = Server.port t in
  let tally, elapsed =
    run_fleet ~port ~clients:16 ~total:n (fun _ -> sparql_request query)
  in
  (* server-side reconciliation, before any further request shifts the
     index stream *)
  let stats = Server.stats_json t in
  expect_eq "server counted every disconnect" p_disconnect
    (fault_counter stats "disconnect");
  expect_eq "server counted every slow client" p_slow
    (fault_counter stats "slow");
  expect_eq "server counted every malformed frame" p_malformed
    (fault_counter stats "malformed");
  expect_eq "server counted every starved budget" p_starve
    (fault_counter stats "starve");
  expect_eq "server counted every poisoned entry" p_poison
    (fault_counter stats "poison");
  (* client-side reconciliation: each kind surfaced as its structured
     outcome, nothing leaked into another bucket *)
  expect_eq "disconnects seen as EOF, no response" p_disconnect tally.eof;
  expect_eq "malformed frames answered 400" p_malformed tally.bad;
  expect_eq "slow clients and starved budgets answered 408"
    (p_slow + p_starve) tally.timeout;
  expect_eq "poisoned entries answered 500" p_poison tally.failed;
  expect_eq "every healthy request served 200" (n - total_faults) tally.ok;
  expect_eq "nothing shed under the fault load" 0 tally.shed;
  expect_eq "no unclassified outcomes" 0 tally.other;
  (* liveness: the pool still serves after the barrage *)
  let control = http_request ~port (sparql_request query) in
  expect "control query after the barrage returns 200"
    (status_of_response control = Status 200);
  Server.initiate_drain t;
  ignore (Server.join t);
  expect_eq "no descriptor leaked across the barrage" fd_baseline (Io.live ());
  let p50, p99 = latency_stats tally.latencies_ok in
  Fmt.pr "  %d ok / %d faulted in %.1fs, p50 %.2fms, p99 %.2fms@." tally.ok
    total_faults elapsed p50 p99;
  record ~experiment:"faults" ~metric:"requests" (float n);
  record ~experiment:"faults" ~metric:"faults_injected" (float total_faults);
  record ~experiment:"faults" ~metric:"disconnect" (float p_disconnect);
  record ~experiment:"faults" ~metric:"slow" (float p_slow);
  record ~experiment:"faults" ~metric:"malformed" (float p_malformed);
  record ~experiment:"faults" ~metric:"starve" (float p_starve);
  record ~experiment:"faults" ~metric:"poison" (float p_poison);
  record ~experiment:"faults" ~metric:"served_ok" (float tally.ok);
  record ~experiment:"faults" ~metric:"throughput_rps" (float n /. elapsed);
  record ~experiment:"faults" ~metric:"p50_ms" p50;
  record ~experiment:"faults" ~metric:"p99_ms" p99;
  record ~experiment:"faults" ~metric:"fd_leaked"
    (float (Io.live () - fd_baseline))

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse = function
    | "--fast" :: rest ->
        fast := true;
        parse rest
    | "--json-out" :: file :: rest ->
        json_out := Some file;
        parse rest
    | arg :: _ ->
        Fmt.epr "unknown argument %s@." arg;
        exit 2
    | [] -> ()
  in
  parse args;
  scenario_steady ();
  scenario_overload ();
  scenario_faults ();
  Option.iter write_json !json_out;
  if !failures > 0 then begin
    Fmt.epr "@.%d harness assertion(s) failed@." !failures;
    exit 1
  end;
  Fmt.pr "@.all harness assertions passed@."
