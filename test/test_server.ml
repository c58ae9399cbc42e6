(* PR 6: the long-running endpoint (lib/server). Units for the HTTP
   subset, the deterministic fault schedule, and admission control; then
   the end-to-end smoke test the issue asks for — start on an ephemeral
   port, serve one query, shed one request, reject one malformed frame,
   SIGTERM-drain, and come back with every descriptor closed. *)

module Io = Wd_server.Io
module Http = Wd_server.Http
module Faults = Wd_server.Faults
module Admission = Wd_server.Admission
module Server = Wd_server.Server
module Json = Analysis.Json
module Budget = Resource.Budget

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* HTTP parsing over a socketpair                                      *)
(* ------------------------------------------------------------------ *)

(* Feed raw bytes to one end of a socketpair and parse them off the
   other through the real Io/Http stack. The test is the client here,
   so plain Unix writes on [a] are fine (the lint rule covers lib/). *)
let with_request raw f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Io.of_fd b in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      Io.close conn)
    (fun () ->
      let n = Unix.write_substring a raw 0 (String.length raw) in
      check Alcotest.int "request fits the socket buffer"
        (String.length raw) n;
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      f conn)

let deadline () = Unix.gettimeofday () +. 2.

let test_http_get () =
  with_request
    "GET /sparql?query=%7B%20%3Fa%20p%3Aknows%20%3Fb%20%7D&x=1+2 \
     HTTP/1.1\r\n\
     Host: localhost\r\n\
     \r\n"
    (fun conn ->
      let req =
        Http.read_request conn ~deadline:(deadline ()) ~max_bytes:4096
      in
      check Alcotest.string "method" "GET" req.Http.meth;
      check Alcotest.string "path" "/sparql" req.Http.path;
      check Alcotest.(option string) "decoded query parameter"
        (Some "{ ?a p:knows ?b }")
        (List.assoc_opt "query" req.Http.query);
      check Alcotest.(option string) "plus decodes to space" (Some "1 2")
        (List.assoc_opt "x" req.Http.query);
      check Alcotest.(option string) "headers lowercased" (Some "localhost")
        (Http.header "HOST" req))

let test_http_post_body () =
  let body = "{ ?a p:knows ?b }" in
  with_request
    (Printf.sprintf
       "POST /sparql HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
       (String.length body) body)
    (fun conn ->
      let req =
        Http.read_request conn ~deadline:(deadline ()) ~max_bytes:4096
      in
      check Alcotest.string "method" "POST" req.Http.meth;
      check Alcotest.string "body read to Content-Length" body req.Http.body)

let test_http_malformed () =
  let raises_malformed raw =
    with_request raw (fun conn ->
        match
          Http.read_request conn ~deadline:(deadline ()) ~max_bytes:4096
        with
        | _ -> Alcotest.fail "malformed request parsed"
        | exception Http.Malformed _ -> ())
  in
  raises_malformed "BOGUS\r\n\r\n";
  raises_malformed "GET /x HTTP/3.0\r\n\r\n";
  raises_malformed "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n";
  (* the subset excludes chunked bodies *)
  raises_malformed
    "POST /sparql HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  (* bad percent escape in the query string *)
  raises_malformed "GET /sparql?query=%zz HTTP/1.1\r\n\r\n"

let test_http_too_large () =
  with_request
    (Printf.sprintf "POST /sparql HTTP/1.1\r\nContent-Length: 300\r\n\r\n%s"
       (String.make 300 'q'))
    (fun conn ->
      match
        Http.read_request conn ~deadline:(deadline ()) ~max_bytes:128
      with
      | _ -> Alcotest.fail "oversized body accepted"
      | exception Io.Too_large -> ())

let test_http_disconnect () =
  with_request "GET /spar" (fun conn ->
      match
        Http.read_request conn ~deadline:(deadline ()) ~max_bytes:4096
      with
      | _ -> Alcotest.fail "truncated request parsed"
      | exception Io.Disconnected -> ())

let test_io_fd_accounting () =
  let before = Io.live () in
  with_request "GET / HTTP/1.1\r\n\r\n" (fun conn ->
      check Alcotest.int "wrapping a socket raises live" (before + 1)
        (Io.live ());
      ignore (Http.read_request conn ~deadline:(deadline ()) ~max_bytes:4096);
      Io.close conn;
      Io.close conn (* idempotent *));
  check Alcotest.int "closing restores the baseline" before (Io.live ())

(* ------------------------------------------------------------------ *)
(* Deterministic fault schedule                                        *)
(* ------------------------------------------------------------------ *)

let test_faults_parse () =
  let ok spec = Result.is_ok (Faults.parse spec)
  and err spec = Result.is_error (Faults.parse spec) in
  check Alcotest.bool "empty spec means no faults" true (ok "");
  check Alcotest.bool "full spec parses" true
    (ok "disconnect:11,slow:9,malformed:5,starve:7,poison:13");
  check Alcotest.bool "unknown kind rejected" true (err "bogus:3");
  check Alcotest.bool "zero period rejected" true (err "slow:0");
  check Alcotest.bool "negative period rejected" true (err "slow:-2");
  check Alcotest.bool "non-numeric period rejected" true (err "slow:x");
  check Alcotest.bool "duplicate kind rejected" true (err "slow:2,slow:3");
  check Alcotest.bool "missing period rejected" true (err "slow")

let test_faults_schedule () =
  let t = Result.get_ok (Faults.parse "disconnect:3,slow:2") in
  let kind = Alcotest.option (Alcotest.testable Fmt.nop ( = )) in
  check kind "no fault for request 1" None (Faults.for_request t 1);
  check kind "period 2 arms slow" (Some Faults.Slow) (Faults.for_request t 2);
  check kind "period 3 arms disconnect" (Some Faults.Disconnect)
    (Faults.for_request t 3);
  (* both periods divide 6: priority picks exactly one *)
  check kind "priority breaks ties" (Some Faults.Disconnect)
    (Faults.for_request t 6);
  check kind "non-positive indices are never faulted" None
    (Faults.for_request t 0);
  check kind "empty schedule injects nothing" None
    (Faults.for_request Faults.none 6);
  (* the schedule is a pure function of the index: a harness can
     reconcile server counters against its own simulation *)
  let sim = List.init 100 (fun i -> Faults.for_request t (i + 1)) in
  (* multiples of 2 or 3 in 1..100: 50 + 33 - 16 *)
  check Alcotest.int "exactly the predicted fault volume" 67
    (List.length (List.filter Option.is_some sim))

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let admission_config =
  {
    Admission.request_fuel = 10;
    request_timeout = 5.;
    max_solutions = None;
    global_fuel = Some 20;
    refill_rate = 0.;
    max_inflight = 3;
  }

let test_admission_watermarks () =
  let t = Admission.create admission_config in
  let l1 = Result.get_ok (Admission.try_admit t) in
  let l2 = Result.get_ok (Admission.try_admit t) in
  check Alcotest.(option int) "two grants drain the bucket" (Some 0)
    (Admission.bucket_level t);
  (* slots remain, tokens do not: shed on the budget watermark, and the
     failed admission must roll its slot reservation back *)
  (match Admission.try_admit t with
  | Ok _ -> Alcotest.fail "admitted past the global budget"
  | Error (Admission.Budget_watermark, retry) ->
      check Alcotest.bool "Retry-After is at least a second" true (retry >= 1.)
  | Error (Admission.Inflight_watermark, _) ->
      Alcotest.fail "shed on the wrong watermark");
  check Alcotest.int "failed admission rolled back its slot" 2
    (Admission.inflight t);
  (* an unspent release returns the full grant *)
  Admission.release t l1;
  check Alcotest.(option int) "released fuel refills the bucket" (Some 10)
    (Admission.bucket_level t);
  check Alcotest.int "slot freed" 1 (Admission.inflight t);
  let l3 = Result.get_ok (Admission.try_admit t) in
  let _l4 =
    (* inflight is 2 of 3 but the bucket is empty again *)
    match Admission.try_admit t with
    | Ok _ -> Alcotest.fail "admitted with an empty bucket"
    | Error (Admission.Budget_watermark, _) -> ()
    | Error (Admission.Inflight_watermark, _) ->
        Alcotest.fail "shed on the wrong watermark"
  in
  Admission.release t l2;
  Admission.release t l3;
  check Alcotest.int "all slots freed" 0 (Admission.inflight t);
  check Alcotest.int "three admissions" 3 (Admission.admitted t);
  check Alcotest.int "two budget sheds" 2 (Admission.shed_tokens t)

let test_admission_inflight_watermark () =
  let t =
    Admission.create
      { admission_config with global_fuel = None; max_inflight = 1 }
  in
  let l1 = Result.get_ok (Admission.try_admit t) in
  (match Admission.try_admit t with
  | Ok _ -> Alcotest.fail "admitted past the in-flight watermark"
  | Error (Admission.Inflight_watermark, retry) ->
      check Alcotest.bool "Retry-After is at least a second" true (retry >= 1.)
  | Error (Admission.Budget_watermark, _) ->
      Alcotest.fail "shed on the wrong watermark");
  Admission.release t l1;
  check Alcotest.int "one in-flight shed" 1 (Admission.shed_inflight t);
  check Alcotest.(option int) "no bucket without a global budget" None
    (Admission.bucket_level t)

let test_admission_starvation () =
  let t = Admission.create { admission_config with global_fuel = None } in
  let lease = Result.get_ok (Admission.try_admit ~starve:true t) in
  check Alcotest.int "the grant is accounted at full price"
    admission_config.Admission.request_fuel lease.Admission.fuel;
  (* ... but the budget itself is nearly empty: evaluation trips the
     budget-exhaustion path almost immediately *)
  (match
     Budget.with_phase lease.Admission.budget "test" (fun () ->
         for _ = 1 to 16 do
           Budget.tick lease.Admission.budget
         done)
   with
  | () -> Alcotest.fail "starved budget survived 16 ticks"
  | exception Budget.Exhausted { phase; _ } ->
      check Alcotest.string "the tripping phase is reported" "test" phase);
  Admission.release t lease

(* ------------------------------------------------------------------ *)
(* End-to-end smoke (satellite 6)                                      *)
(* ------------------------------------------------------------------ *)

(* A blocking one-shot HTTP client: connect, send, read to EOF (the
   server closes every connection), return (status, header lines, body). *)
let http_request ~port raw =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let rec send off =
        if off < String.length raw then
          send (off + Unix.write_substring fd raw off (String.length raw - off))
      in
      send 0;
      let buf = Bytes.create 4096 and out = Buffer.create 256 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes out buf 0 n;
            drain ()
      in
      drain ();
      Buffer.contents out)

let response_status raw =
  match String.split_on_char ' ' raw with
  | _http :: code :: _ -> int_of_string code
  | _ -> Alcotest.failf "unparseable response: %S" raw

let response_header name raw =
  let lower = String.lowercase_ascii in
  String.split_on_char '\n' raw
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when lower (String.sub line 0 i) = lower name ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

let get ~port path = http_request ~port (Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path)

let post_query ~port q =
  http_request ~port
    (Printf.sprintf "POST /sparql HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
       (String.length q) q)

let smoke_config () =
  let fuel = 200_000 in
  {
    Server.graph = Rdf.Generator.social ~seed:3 ~people:12;
    reload = None;
    host = "127.0.0.1";
    port = 0;
    workers = 2;
    domains = 1;
    queue_capacity = 4;
    admission =
      {
        Admission.request_fuel = fuel;
        request_timeout = 5.;
        max_solutions = None;
        (* the bucket holds exactly one grant and never refills: the
           first query leaves it short, so the next /sparql is a
           deterministic 503 shed *)
        global_fuel = Some fuel;
        refill_rate = 0.;
        max_inflight = 4;
      };
    max_request_bytes = 1 lsl 16;
    io_timeout = 2.;
    faults = Faults.none;
    plan_capacity = 4;
  }

(* Poll [ok] until it holds, failing the test after [seconds]. *)
let wait_until ~seconds ~what ok =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    if ok () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "%s: not within %.0f s" what seconds
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

(* Run [Server.join] on a helper thread and wait at most [seconds] for
   it: a drain that hangs fails the test instead of hanging the suite. *)
let join_within ~seconds t =
  let result = Atomic.make None in
  ignore
    (Thread.create
       (fun () ->
         Atomic.set result
           (Some (match Server.join t with s -> Ok s | exception e -> Error e)))
       ());
  wait_until ~seconds ~what:"join returns" (fun () ->
      Option.is_some (Atomic.get result));
  match Atomic.get result with
  | Some (Ok stats) -> stats
  | Some (Error e) -> raise e
  | None -> assert false

let test_smoke () =
  let fd_baseline = Io.live () in
  let t = Server.start (smoke_config ()) in
  Server.install_signal_handlers t;
  let port = Server.port t in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      Sys.set_signal Sys.sigint Sys.Signal_default)
    (fun () ->
      let health = get ~port "/health" in
      check Alcotest.int "health is 200" 200 (response_status health);
      check Alcotest.bool "health says ok" true
        (Astring.String.is_infix ~affix:"\"ok\"" health);
      (* one real query *)
      let ok = post_query ~port "{ ?a p:knows ?b }" in
      check Alcotest.int "query is 200" 200 (response_status ok);
      check Alcotest.bool "SPARQL JSON results" true
        (Astring.String.is_infix ~affix:"bindings" ok);
      (* one shed: the bucket cannot cover a second grant *)
      let shed = post_query ~port "{ ?a p:knows ?b }" in
      check Alcotest.int "second query is shed with 503" 503
        (response_status shed);
      check Alcotest.bool "shed carries Retry-After" true
        (Option.is_some (response_header "retry-after" shed));
      (* one malformed frame *)
      let bad = http_request ~port "NOT_HTTP\r\n\r\n" in
      check Alcotest.int "malformed frame is 400" 400 (response_status bad);
      (* endpoints that bypass admission still serve while shedding *)
      let stats = get ~port "/stats" in
      check Alcotest.int "stats is 200" 200 (response_status stats);
      check Alcotest.int "unknown path is 404" 404
        (response_status (get ~port "/nope"));
      (* SIGTERM drains: join completes, the port closes, no fd leaks *)
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      let final = join_within ~seconds:5. t in
      (match
         Json.member "responses" final |> Option.get |> Json.member "200"
       with
      | Some n ->
          check Alcotest.bool "final stats count the successes" true
            (Option.value ~default:0 (Json.to_int n) >= 3)
      | None -> Alcotest.fail "final stats lack a responses section");
      (match
         Option.bind (Json.member "plan_cache" final)
           (Json.member "child_joins")
       with
      | Some joins ->
          List.iter
            (fun key ->
              check Alcotest.bool ("stats count child joins: " ^ key) true
                (Option.is_some
                   (Option.bind (Json.member key joins) Json.to_int)))
            [ "runs"; "extensions"; "capped"; "pebble" ]
      | None -> Alcotest.fail "final stats lack plan_cache.child_joins");
      (match Json.member "plan_cache" final with
      | Some pc ->
          List.iter
            (fun key ->
              check Alcotest.bool ("stats count answers: " ^ key) true
                (Option.is_some (Json.member key pc)))
            [ "rows"; "answers"; "candidates_per_answer" ]
      | None -> Alcotest.fail "final stats lack plan_cache");
      (match http_request ~port "GET /health HTTP/1.1\r\n\r\n" with
      | _ -> Alcotest.fail "listener still accepting after drain"
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET), _, _)
        -> ());
      check Alcotest.int "every server descriptor closed" fd_baseline
        (Io.live ()))

(* PR 9: SIGHUP-style reload picks up freshly appended delta segments
   without dropping the listener or in-flight connections. *)
let test_reload_picks_up_segments () =
  let dir = Filename.temp_file "wdsparql_srv_reload" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      let path = Filename.concat dir "s.wds" in
      let g = Rdf.Generator.path ~n:3 ~pred:"knows" in
      Storage.save (Encoded.Encoded_graph.of_graph g) path;
      let config =
        {
          (smoke_config ()) with
          Server.graph = Storage.load_graph path;
          reload = Some (fun () -> Storage.load_graph path);
          admission =
            {
              Admission.request_fuel = 200_000;
              request_timeout = 5.;
              max_solutions = None;
              global_fuel = None;
              refill_rate = 0.;
              max_inflight = 4;
            };
        }
      in
      let t = Server.start config in
      let port = Server.port t in
      let count_bindings body =
        (* one "?a ↦" pair per solution: count subject keys *)
        let rec go i n =
          match Astring.String.find_sub ~start:i ~sub:"{\"a\"" body with
          | Some j -> go (j + 1) (n + 1)
          | None -> n
        in
        go 0 0
      in
      Fun.protect
        ~finally:(fun () ->
          Server.initiate_drain t;
          ignore (join_within ~seconds:5. t))
        (fun () ->
          let compiled () =
            match
              Option.bind
                (Json.member "plan_cache" (Server.stats_json t))
                (Json.member "compiled")
            with
            | Some v -> Option.value ~default:(-1) (Json.to_int v)
            | None -> Alcotest.fail "stats lack plan_cache.compiled"
          in
          let before = post_query ~port "{ ?a p:knows ?b }" in
          check Alcotest.int "query before reload is 200" 200
            (response_status before);
          check Alcotest.int "two edges before the append" 2
            (count_bindings before);
          let compiled_before = compiled () in
          (* append a segment behind the server's back, then signal *)
          let knows = Rdf.Term.iri "p:knows" in
          let n k = Rdf.Term.iri (Printf.sprintf "n:%d" k) in
          (match
             Storage.append ~adds:[ Rdf.Triple.make (n 3) knows (n 4) ] path
           with
          | Some _ -> ()
          | None -> Alcotest.fail "append was a no-op");
          Server.request_reload t;
          (* the worker that dequeues the next connection runs the
             reload before serving it: the very first query sees the
             appended segment *)
          let after = post_query ~port "{ ?a p:knows ?b }" in
          check Alcotest.int "first query after the reload request is 200"
            200 (response_status after);
          check Alcotest.int "first query after the reload request sees it" 3
            (count_bindings after);
          (* plans are keyed on the canonical query alone: the plan
             outlives the reload and only its store artefacts follow *)
          check Alcotest.int "the plan survives the reload" compiled_before
            (compiled ());
          let stats = get ~port "/stats" in
          check Alcotest.bool "stats count the reload" true
            (Astring.String.is_infix ~affix:"\"reloads\": 1" stats
            || Astring.String.is_infix ~affix:"\"reloads\":1" stats)))

let server_field t key =
  match
    Option.bind (Json.member "server" (Server.stats_json t)) (Json.member key)
  with
  | Some v -> Option.value ~default:(-1) (Json.to_int v)
  | None -> Alcotest.failf "stats lack server.%s" key

let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let drain_config ~io_timeout =
  { (smoke_config ()) with Server.workers = 4; queue_capacity = 8; io_timeout }

(* Idle workers block on the queue's condition variable; the drain must
   wake them, or [join] would wait forever. *)
let test_idle_drain () =
  let fd_baseline = Io.live () in
  let t = Server.start (drain_config ~io_timeout:2.) in
  (* let all four workers reach their wait *)
  Thread.delay 0.1;
  Server.initiate_drain t;
  ignore (join_within ~seconds:2. t);
  check Alcotest.int "every server descriptor closed" fd_baseline (Io.live ())

(* Same, with a connection still queued when the drain starts: four
   silent clients hold the four workers until their read deadline, so a
   fifth connection waits in the queue and must get the prompt 503. *)
let test_drain_with_queued () =
  let fd_baseline = Io.live () in
  let t = Server.start (drain_config ~io_timeout:1.) in
  let port = Server.port t in
  let silent = List.init 4 (fun _ -> connect ~port) in
  let queued = connect ~port in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        (queued :: silent))
    (fun () ->
      wait_until ~seconds:5. ~what:"four busy workers, one queued connection"
        (fun () ->
          server_field t "requests" = 5 && server_field t "queue_depth" = 1);
      (* the queued client sends nothing: a drained connection is
         answered without being read, and unread bytes would turn the
         server's close into a reset that can swallow the response *)
      Server.initiate_drain t;
      ignore (join_within ~seconds:2. t);
      let buf = Bytes.create 4096 in
      let n = Unix.read queued buf 0 (Bytes.length buf) in
      let resp = Bytes.sub_string buf 0 n in
      check Alcotest.int "the queued connection gets 503" 503
        (response_status resp);
      check Alcotest.bool "it says draining" true
        (Astring.String.is_infix ~affix:"draining" resp));
  check Alcotest.int "every server descriptor closed" fd_baseline (Io.live ())

let () =
  Alcotest.run "server"
    [
      ( "http",
        [
          Alcotest.test_case "GET with encoded query" `Quick test_http_get;
          Alcotest.test_case "POST body" `Quick test_http_post_body;
          Alcotest.test_case "malformed frames" `Quick test_http_malformed;
          Alcotest.test_case "oversized body" `Quick test_http_too_large;
          Alcotest.test_case "truncated request" `Quick test_http_disconnect;
          Alcotest.test_case "fd accounting" `Quick test_io_fd_accounting;
        ] );
      ( "faults",
        [
          Alcotest.test_case "spec parsing" `Quick test_faults_parse;
          Alcotest.test_case "deterministic schedule" `Quick
            test_faults_schedule;
        ] );
      ( "admission",
        [
          Alcotest.test_case "budget watermark and rollback" `Quick
            test_admission_watermarks;
          Alcotest.test_case "in-flight watermark" `Quick
            test_admission_inflight_watermark;
          Alcotest.test_case "budget starvation" `Quick
            test_admission_starvation;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "serve, shed, reject, drain" `Quick test_smoke;
          Alcotest.test_case "reload picks up appended segments" `Quick
            test_reload_picks_up_segments;
        ] );
      ( "drain",
        [
          Alcotest.test_case "idle workers wake and exit" `Quick
            test_idle_drain;
          Alcotest.test_case "a queued connection gets 503" `Quick
            test_drain_with_queued;
        ] );
    ]
