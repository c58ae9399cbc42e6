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

(* ------------------------------------------------------------------ *)
(* Response bodies written from id rows                                 *)
(* ------------------------------------------------------------------ *)

module Canonical = Analysis.Canonical
module Engine = Wd_core.Engine

(* The oracle: the body as the server built it from the decoded answer
   set, through a [Json.t] tree. *)
let results_json ~canon plan answers =
  let vars =
    List.map
      (Canonical.original_var canon)
      (Rdf.Variable.Set.elements (Wdpt.Pattern_forest.vars plan.Engine.forest))
    |> List.sort_uniq Rdf.Variable.compare
  in
  let binding mu =
    Json.Obj
      (List.map
         (fun (v, iri) ->
           ( Rdf.Variable.to_string v,
             Json.Obj
               [ ("type", Json.String "uri");
                 ("value", Json.String (Rdf.Iri.to_string iri)) ] ))
         (Sparql.Mapping.to_list (Canonical.rename_back canon mu)))
  in
  Json.Obj
    [ ( "head",
        Json.Obj
          [ ( "vars",
              Json.List
                (List.map
                   (fun v -> Json.String (Rdf.Variable.to_string v))
                   vars) ) ] );
      ( "results",
        Json.Obj
          [ ( "bindings",
              Json.List
                (List.map binding (Sparql.Mapping.Set.elements answers)) ) ]
      ) ]

(* Both bodies of one query on one graph, from the plan a request
   compiles: (oracle, written from rows). *)
let bodies g query =
  let canon = Canonical.of_pattern (Sparql.Parser.parse_exn query) in
  let plan =
    Server.compile_plan ~budget:Budget.unlimited canon.Canonical.pattern
  in
  ( Json.to_string (results_json ~canon plan (Engine.solutions plan g)),
    Server.results_body ~canon (Engine.answer_rows plan g) )

let response_body raw =
  match Astring.String.cut ~sep:"\r\n\r\n" raw with
  | Some (_, body) -> body
  | None -> Alcotest.failf "response without a body: %S" raw

(* Each query's body, computed directly and served over HTTP by a
   server on [g], against the oracle. *)
let check_bodies g queries =
  let config =
    {
      (smoke_config ()) with
      Server.graph = g;
      admission =
        { (smoke_config ()).Server.admission with
          Admission.global_fuel = None;
          request_fuel = 10_000_000 };
    }
  in
  let t = Server.start config in
  let port = Server.port t in
  Fun.protect
    ~finally:(fun () ->
      Server.initiate_drain t;
      ignore (join_within ~seconds:5. t))
    (fun () ->
      List.iter
        (fun q ->
          let oracle, direct = bodies g q in
          check Alcotest.string ("rows body = oracle: " ^ q) oracle direct;
          let raw = post_query ~port q in
          check Alcotest.int ("200: " ^ q) 200 (response_status raw);
          check Alcotest.string ("served body = oracle: " ^ q) oracle
            (response_body raw))
        queries)

(* A small University store in the shape of the serve-hot data:
   professors with and without mail, courses nobody teaches. *)
let university () =
  let st = Random.State.make [| 5 |] and acc = ref [] in
  let add s p o =
    acc :=
      Rdf.Triple.make (Rdf.Term.iri s) (Rdf.Term.iri p) (Rdf.Term.iri o)
      :: !acc
  in
  for u = 0 to 1 do
    let uni = Printf.sprintf "uni:%02d" u in
    add uni "u:type" "c:University";
    for d = 0 to 1 do
      let dept = Printf.sprintf "dept:%02d_%d" u d in
      let course c = Printf.sprintf "course:%02d_%d_%02d" u d c in
      let prof f = Printf.sprintf "prof:%02d_%d_%d" u d f in
      add dept "u:type" "c:Department";
      add dept "u:subOrgOf" uni;
      for c = 0 to 5 do
        add (course c) "u:type" "c:Course"
      done;
      for f = 0 to 3 do
        add (prof f) "u:type" "c:Professor";
        add (prof f) "u:worksFor" dept;
        add (prof f) "u:teacherOf" (course (Random.State.int st 6));
        add (prof f) "u:teacherOf" (course (Random.State.int st 6));
        if f mod 2 = 0 then
          add (prof f) "u:email" (Printf.sprintf "mailto:prof_%02d_%d_%d" u d f)
      done;
      for s = 0 to 7 do
        let student = Printf.sprintf "student:%02d_%d_%02d" u d s in
        add student "u:type" "c:Student";
        add student "u:memberOf" dept;
        add student "u:advisor" (prof (Random.State.int st 4));
        add student "u:takesCourse" (course (Random.State.int st 6));
        add student "u:takesCourse" (course (Random.State.int st 6))
      done
    done
  done;
  Rdf.Graph.of_triples !acc

(* The serve-hot templates, as the benchmark spells them: a group is
   leading triples then OPTIONAL groups, "$C" the constant. *)
type item = T of string * string * string | Opt of item list

let serve_hot_templates =
  let t s p o = T (s, p, o) in
  [
    ( "prof:00_1_2",
      [ t "$C" "u:worksFor" "?d"; Opt [ t "$C" "u:email" "?m" ] ] );
    ( "prof:00_1_2",
      [ t "$C" "u:teacherOf" "?c"; Opt [ t "?p" "u:teacherOf" "?c" ] ] );
    ( "student:01_0_03",
      [ t "$C" "u:advisor" "?p"; t "?p" "u:worksFor" "?d";
        Opt [ t "?p" "u:email" "?m" ] ] );
    ( "student:01_0_03",
      [ t "$C" "u:takesCourse" "?c"; Opt [ t "?p" "u:teacherOf" "?c" ] ] );
    ("student:01_0_03", [ t "$C" "u:memberOf" "?d"; t "?d" "u:subOrgOf" "?u" ]);
    ("dept:00_1", [ t "$C" "u:subOrgOf" "?u"; t "?p" "u:worksFor" "$C" ]);
    ("prof:01_1_1", [ t "?s" "u:advisor" "$C"; t "$C" "u:worksFor" "?d" ]);
    ("dept:01_0", [ t "?p" "u:worksFor" "$C"; Opt [ t "?p" "u:email" "?m" ] ]);
    ( "prof:00_0_1",
      [ t "$C" "u:type" "c:Professor"; t "$C" "u:teacherOf" "?c";
        Opt [ t "$C" "u:email" "?m" ] ] );
    ( "student:00_1_05",
      [ t "$C" "u:advisor" "?p"; Opt [ t "?p" "u:email" "?m" ];
        Opt [ t "?p" "u:teacherOf" "?c" ] ] );
    ( "student:00_1_05",
      [ t "$C" "u:type" "c:Student"; t "$C" "u:memberOf" "?d";
        Opt [ t "$C" "u:advisor" "?p"; Opt [ t "?p" "u:email" "?m" ] ] ] );
    ("dept:00_0", [ t "?p" "u:worksFor" "$C"; t "?p" "u:teacherOf" "?c" ]);
    ( "dept:00_0",
      [ t "?s" "u:memberOf" "$C"; Opt [ t "?s" "u:advisor" "?a" ] ] );
    ( "dept:01_1",
      [ t "?s" "u:memberOf" "$C"; t "?s" "u:takesCourse" "?c";
        Opt [ t "?p" "u:teacherOf" "?c" ] ] );
    ( "uni:01",
      [ t "?d" "u:subOrgOf" "$C"; t "?p" "u:worksFor" "?d";
        Opt [ t "?p" "u:teacherOf" "?c" ]; Opt [ t "?p" "u:email" "?m" ] ] );
    ( "uni:00",
      [ t "?d" "u:subOrgOf" "$C"; t "?s" "u:memberOf" "?d";
        Opt [ t "?s" "u:advisor" "?a" ] ] );
  ]

let rec map_items f =
  List.map (function
    | T (s, p, o) -> T (f s, f p, f o)
    | Opt g -> Opt (map_items f g))

let rec render items =
  "{ "
  ^ String.concat " "
      (List.map
         (function
           | T (s, p, o) -> Printf.sprintf "%s %s %s ." s p o
           | Opt g -> "OPTIONAL " ^ render g)
         items)
  ^ " }"

(* As written; with the leading triples reversed (or, for a single
   leading triple, alpha-renamed); alpha-renamed. *)
let spellings (constant, body) =
  let body = map_items (fun s -> if s = "$C" then constant else s) body in
  let rename suffix =
    map_items (fun s -> if s.[0] = '?' then s ^ suffix else s) body
  in
  let lead, rest =
    List.partition (function T _ -> true | Opt _ -> false) body
  in
  let second =
    if List.length lead > 1 then List.rev lead @ rest else rename "2"
  in
  List.map render [ body; second; rename "1" ]

let test_bodies_serve_hot () =
  let queries = List.concat_map spellings serve_hot_templates in
  check Alcotest.int "16 templates in three spellings" 48
    (List.length queries);
  let g = university () in
  List.iter
    (fun q ->
      check Alcotest.bool ("answers something: " ^ q) false
        (Astring.String.is_infix ~affix:{|"bindings":[]|} (fst (bodies g q))))
    queries;
  check_bodies g queries

let test_bodies_queries_dir () =
  let dir = "../queries" in
  let queries =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".rq")
    |> List.sort String.compare
    |> List.map (fun f ->
           In_channel.with_open_bin (Filename.concat dir f)
             In_channel.input_all)
    (* FILTER queries are outside the engine's fragment *)
    |> List.filter (fun q ->
           Sparql.Algebra.is_core (Sparql.Parser.parse_exn q))
  in
  check Alcotest.bool "the corpus has core queries" true (queries <> []);
  check_bodies (Rdf.Generator.social ~seed:1 ~people:30) queries

(* Hand-made corners: an OPTIONAL left unbound, a row two UNION branches
   both produce, an empty answer, IRIs that need JSON escaping, and
   variables whose names sort against their canonical order. *)
let test_bodies_corners () =
  let triple s p o =
    Rdf.Triple.make (Rdf.Term.iri s) (Rdf.Term.iri p) (Rdf.Term.iri o)
  in
  let g =
    Rdf.Graph.of_triples
      [
        triple "n:a" "q:r" "n:b";
        triple "n:a" "q:t" "n:b";
        triple "n:b" "q:s" "n:c";
        triple "n:c" "q:r" "n:d";
        triple "n:e" "q:r" "n:quote\"back\\slash";
        triple "n:e" "q:r" "n:ctl\001\031tab\tnl\n";
        triple "n:e" "q:r" "n:caf\xc3\xa9-\xe2\x86\xa6";
      ]
  in
  check_bodies g
    [
      "{ ?x q:r ?y OPTIONAL { ?y q:s ?z } }";
      "{ { ?x q:r ?y } UNION { ?x q:t ?y } }";
      "{ ?x q:none ?y }";
      "{ ?x q:none ?y OPTIONAL { ?y q:s ?z } }";
      "{ n:e q:r ?v }";
      "{ ?zz q:r ?a OPTIONAL { ?a q:s ?m OPTIONAL { ?m q:r ?b } } }";
    ]

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
      ( "bodies",
        [
          Alcotest.test_case "serve-hot templates = Json oracle" `Quick
            test_bodies_serve_hot;
          Alcotest.test_case "queries/*.rq = Json oracle" `Quick
            test_bodies_queries_dir;
          Alcotest.test_case "corners = Json oracle" `Quick
            test_bodies_corners;
        ] );
      ( "drain",
        [
          Alcotest.test_case "idle workers wake and exit" `Quick
            test_idle_drain;
          Alcotest.test_case "a queued connection gets 503" `Quick
            test_drain_with_queued;
        ] );
    ]
