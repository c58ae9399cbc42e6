(* The long-running endpoint: an accept thread feeding a bounded queue
   of connections to a small pool of worker threads, which block on a
   condition variable and wake as soon as a connection is queued — no
   worker polls. Robustness over raw speed: every request runs under a
   private budget carved from the admission controller, overload is shed
   promptly at three watermarks (queue depth at accept, in-flight count,
   global token bucket), every socket operation has a deadline, and
   SIGINT/SIGTERM drains — stop accepting, wake idle workers, cancel
   in-flight budgets, flush the final stats. *)

module Budget = Resource.Budget
module Engine = Wd_core.Engine
module Plan_cache = Wd_core.Plan_cache
module Row_writer = Wd_core.Row_writer
module Pebble_cache = Wd_core.Pebble_cache
module Json = Analysis.Json
module Canonical = Analysis.Canonical
module Prune = Analysis.Prune
module E = Wdsparql_error

type config = {
  graph : Rdf.Graph.t;
  reload : (unit -> Rdf.Graph.t) option;
      (* re-resolve the graph (e.g. re-discover a store's delta
         segments); on [request_reload], run by the worker that dequeues
         the next connection, before it serves that connection *)
  host : string;
  port : int;  (* 0 = ephemeral, see [port] *)
  workers : int;
  queue_capacity : int;
  admission : Admission.config;
  max_request_bytes : int;
  io_timeout : float;
  faults : Faults.t;
  plan_capacity : int;  (* distinct cached query plans *)
}

(* One cached query plan, shared by every connection whose query has the
   same {e canonical form} ({!Analysis.Canonical}) — alpha-variants and
   reordered conjuncts hit the same entry. Nothing in it is compiled
   against a store until an evaluation asks: its {!Plan_cache} holds one
   store at a time and follows the current one across reloads. The plan
   is compiled from the canonical (pruned) pattern, so its solutions
   bind canonical variable names; each request renames them back
   through its own bijection. The plan's domination width is
   measured once, when the entry is built, and persists in [plan] for
   all later requests.
   [lock] serializes evaluations of this entry (the underlying
   Plan_cache is single-writer); distinct queries evaluate
   concurrently. *)
type plan_entry = {
  plan : Engine.plan;
  lock : Mutex.t;
  first_query : string;
      (* raw text of the query that built the entry: a later hit with
         different text is a cross-query canonical hit, counted apart *)
  mutable last_used : int;  (* LRU stamp *)
}

type job = Io.conn * int * Faults.kind option

type t = {
  config : config;
  listener : Unix.file_descr;
  port : int;
  started_at : float;
  stop : bool Atomic.t;
  graph : Rdf.Graph.t Atomic.t;
      (* the graph requests snapshot; swapped whole by a reload, so
         in-flight evaluations keep the store they started on *)
  reload_pending : bool Atomic.t;
  reloads : int Atomic.t;
  reload_failures : int Atomic.t;
  queue : job Queue.t;
  queue_lock : Mutex.t;
  queue_ready : Condition.t;
      (* signalled (under [queue_lock]) when a connection is queued and
         broadcast when the drain starts; idle workers block on it *)
  next_index : int Atomic.t;  (* 1-based request index, accept order *)
  admission : Admission.t;
  active : (int, Budget.t) Hashtbl.t;  (* in-flight budgets, for drain *)
  active_lock : Mutex.t;
  plans : (string, plan_entry) Hashtbl.t;  (* key: the canonical form *)
  plans_lock : Mutex.t;
  plan_stamp : int Atomic.t;
  mutable plans_retired : Plan_cache.stats;  (* under plans_lock *)
  plans_compiled : int Atomic.t;
  plan_hits : int Atomic.t;
  canonical_hits : int Atomic.t;
      (* plan-cache hits where the raw query text differed from the text
         that built the entry: value delivered by canonicalization alone *)
  plan_evictions : int Atomic.t;
  responses : (int * int Atomic.t) list;
  disconnects : int Atomic.t;  (* no response: peer gone or write failed *)
  fault_counts : (Faults.kind * int Atomic.t) list;
  shed_queue : int Atomic.t;
  workers_done : int Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable worker_threads : Thread.t list;
}

(* ------------------------------------------------------------------ *)
(* Stats plumbing                                                      *)
(* ------------------------------------------------------------------ *)

let tracked_statuses = [ 200; 400; 404; 405; 408; 413; 422; 500; 503 ]

let count_status t status =
  match List.assoc_opt status t.responses with
  | Some a -> Atomic.incr a
  | None -> ()

let count_fault t = function
  | None -> ()
  | Some k -> Atomic.incr (List.assoc k t.fault_counts)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create config =
  if config.workers <= 0 then
    invalid_arg "Server.create: workers must be positive";
  if config.queue_capacity <= 0 then
    invalid_arg "Server.create: queue_capacity must be positive";
  if config.plan_capacity <= 0 then
    invalid_arg "Server.create: plan_capacity must be positive";
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let port =
    try
      Unix.setsockopt listener Unix.SO_REUSEADDR true;
      Unix.bind listener
        (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
      Unix.listen listener 128;
      match Unix.getsockname listener with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    with e ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      raise e
  in
  {
    config;
    listener;
    port;
    started_at = Unix.gettimeofday ();
    stop = Atomic.make false;
    graph = Atomic.make config.graph;
    reload_pending = Atomic.make false;
    reloads = Atomic.make 0;
    reload_failures = Atomic.make 0;
    queue = Queue.create ();
    queue_lock = Mutex.create ();
    queue_ready = Condition.create ();
    next_index = Atomic.make 1;
    admission = Admission.create config.admission;
    active = Hashtbl.create 64;
    active_lock = Mutex.create ();
    plans = Hashtbl.create 64;
    plans_lock = Mutex.create ();
    plan_stamp = Atomic.make 0;
    plans_retired = Plan_cache.zero_stats;
    plans_compiled = Atomic.make 0;
    plan_hits = Atomic.make 0;
    canonical_hits = Atomic.make 0;
    plan_evictions = Atomic.make 0;
    responses = List.map (fun s -> (s, Atomic.make 0)) tracked_statuses;
    disconnects = Atomic.make 0;
    fault_counts =
      List.map (fun k -> (k, Atomic.make 0)) Faults.all;
    shed_queue = Atomic.make 0;
    workers_done = Atomic.make 0;
    accept_thread = None;
    worker_threads = [];
  }

let port t = t.port
let draining t = Atomic.get t.stop

(* ------------------------------------------------------------------ *)
(* The query-plan cache                                                *)
(* ------------------------------------------------------------------ *)

(* Retire an entry's accumulated counters so the /stats totals stay
   monotonic across evictions (mirrors Plan_cache's own retired
   accumulator one level up). Call with [plans_lock] held. *)
let retire_entry t e =
  Atomic.incr t.plan_evictions;
  t.plans_retired <-
    Plan_cache.add_stats t.plans_retired (Plan_cache.stats e.plan.Engine.cache)

let evict_entry t key =
  Mutex.lock t.plans_lock;
  (match Hashtbl.find_opt t.plans key with
  | Some e ->
      Hashtbl.remove t.plans key;
      retire_entry t e
  | None -> ());
  Mutex.unlock t.plans_lock

let compile_plan ~budget pattern =
  (* The pattern is canonical; plan its pruned residual — unsatisfiable
     OPT arms, dead UNION branches and duplicate triples never reach the
     planner. An empty residual means the query is unsatisfiable; plan
     the unpruned pattern (it yields nothing) rather than special-casing
     an always-empty entry. *)
  let pattern =
    match (Prune.run pattern).Prune.outcome with
    | Prune.Pattern residual -> residual
    | Prune.Empty -> pattern
  in
  (* The plan translates the pattern and measures its width once; the
     entry keeps both for every later request of the same query. *)
  Engine.plan ~budget ~plan_capacity:1 pattern

let plan_entry_for t ~budget query =
  (* Parse and canonicalize before the cache probe: the key is the
     canonical form, so hits no longer depend on the query's spelling.
     Both are cheap next to a compile, and parsing stays outside the
     lock either way. *)
  let pattern =
    match Sparql.Parser.parse query with
    | Ok p -> p
    | Error msg ->
        E.fail (E.Parse_error { source = "query"; line = 0; col = 0; msg })
  in
  let canon = Canonical.of_pattern pattern in
  (* The full canonical rendering, not its hash: collision-free by
     construction. No store epoch: no step of [compile_plan] reads the
     store, so a plan outlives a reload, which only releases its store
     artefacts ([release_stores]). *)
  let key = canon.Canonical.key in
  let stamp () = Atomic.fetch_and_add t.plan_stamp 1 in
  let count_hit e =
    Atomic.incr t.plan_hits;
    if not (String.equal e.first_query query) then
      Atomic.incr t.canonical_hits
  in
  Mutex.lock t.plans_lock;
  match Hashtbl.find_opt t.plans key with
  | Some e ->
      e.last_used <- stamp ();
      count_hit e;
      Mutex.unlock t.plans_lock;
      (key, e, canon)
  | None -> (
      Mutex.unlock t.plans_lock;
      (* compile outside the lock — compilation can be expensive and
         must not stall requests for other queries *)
      let plan = compile_plan ~budget canon.Canonical.pattern in
      Atomic.incr t.plans_compiled;
      let fresh =
        { plan; lock = Mutex.create (); first_query = query;
          last_used = stamp () }
      in
      Mutex.lock t.plans_lock;
      match Hashtbl.find_opt t.plans key with
      | Some e ->
          (* lost a compile race: use the winner, drop ours silently *)
          e.last_used <- stamp ();
          count_hit e;
          Mutex.unlock t.plans_lock;
          (key, e, canon)
      | None ->
          Hashtbl.replace t.plans key fresh;
          if Hashtbl.length t.plans > t.config.plan_capacity then begin
            (* evict the least recently used entry *)
            let lru =
              Hashtbl.fold
                (fun k e acc ->
                  match acc with
                  | Some (_, best) when best.last_used <= e.last_used -> acc
                  | _ -> Some (k, e))
                t.plans None
            in
            match lru with
            | Some (k, e) ->
                Hashtbl.remove t.plans k;
                retire_entry t e
            | None -> ()
          end;
          Mutex.unlock t.plans_lock;
          (key, fresh, canon))

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let error_payload ~draining e =
  let base kind = [ ("kind", Json.String kind);
                    ("message", Json.String (E.to_string e)) ] in
  let status, fields =
    match e with
    | E.Parse_error _ -> (400, base "parse_error")
    | E.Not_well_designed _ -> (422, base "not_well_designed")
    | E.Budget_exhausted { phase; spent } ->
        if draining then
          (503, base "draining" @ [ ("phase", Json.String phase) ])
        else
          ( 408,
            base "budget_exhausted"
            @ [ ("phase", Json.String phase); ("spent", Json.Int spent) ] )
    | E.Io_error _ -> (500, base "io_error")
    | E.Store_error _ -> (500, base "store_error")
    | E.Invalid_input _ -> (400, base "invalid_input")
    | E.Internal _ -> (500, base "internal")
  in
  (status, Json.to_string (Json.Obj [ ("error", Json.Obj fields) ]))

let simple_error kind status message =
  ( status,
    Json.to_string
      (Json.Obj
         [ ("error",
            Json.Obj
              [ ("kind", Json.String kind);
                ("message", Json.String message) ]) ]) )

(* Send a response and keep the books; a peer that vanished mid-write
   counts as a disconnect, not a served status. *)
let respond t conn ~deadline ?headers ~status body =
  match Http.respond ?headers conn ~deadline ~status body with
  | () -> count_status t status
  | exception (Io.Timeout | Io.Disconnected) -> Atomic.incr t.disconnects

(* The SPARQL-JSON body of a request's answers, written straight from
   the id rows: byte for byte what [Json.to_string] prints for the
   results document of the decoded answer set. The rows bind canonical
   variable names and come in [Mapping.compare] order of those; [canon]
   is the requesting query's bijection, renaming heads and bindings back
   to the names the client wrote, and each row's bindings follow the
   order of those names, as the renamed mapping lists them. Each
   distinct IRI and each variable name is escaped once. *)
let results_body ~canon rows =
  let names =
    Array.map (Canonical.original_var canon) (Row_writer.variables rows)
  in
  let order = Array.init (Array.length names) Fun.id in
  Array.sort (fun a b -> Rdf.Variable.compare names.(a) names.(b)) order;
  let render f x =
    let b = Buffer.create 64 in
    f b x;
    Buffer.contents b
  in
  let name b v = Json.write_string b (Rdf.Variable.to_string v) in
  let keys =
    Array.map
      (render (fun b v ->
           name b v;
           Buffer.add_char b ':'))
      names
  in
  let values =
    Array.map
      (render (fun b iri ->
           Buffer.add_string b {|{"type":"uri","value":|};
           Json.write_string b (Rdf.Iri.to_string iri);
           Buffer.add_char b '}'))
      (Row_writer.iris rows)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf {|{"head":{"vars":[|};
  Array.iteri
    (fun j k ->
      if j > 0 then Buffer.add_char buf ',';
      name buf names.(k))
    order;
  Buffer.add_string buf {|]},"results":{"bindings":[|};
  for i = 0 to Row_writer.cardinal rows - 1 do
    if i > 0 then Buffer.add_char buf ',';
    Buffer.add_char buf '{';
    let first = ref true in
    Array.iter
      (fun k ->
        let r = Row_writer.binding rows i k in
        if r >= 0 then begin
          if not !first then Buffer.add_char buf ',';
          first := false;
          Buffer.add_string buf keys.(k);
          Buffer.add_string buf values.(r)
        end)
      order;
    Buffer.add_char buf '}'
  done;
  Buffer.add_string buf "]}}";
  Buffer.contents buf

let query_of_request req =
  match List.assoc_opt "query" req.Http.query with
  | Some q -> Some q
  | None when req.meth = "POST" ->
      let ct =
        Option.value ~default:"" (Http.header "content-type" req)
      in
      let is_prefix p =
        String.length ct >= String.length p
        && String.lowercase_ascii (String.sub ct 0 (String.length p)) = p
      in
      if req.body = "" then None
      else begin
        (* a form body without a [query] field (curl --data with raw
           query text gets the form content type by default) falls back
           to the raw-body reading *)
        let from_form =
          if is_prefix "application/x-www-form-urlencoded" then
            match Http.parse_query req.body with
            | pairs -> List.assoc_opt "query" pairs
            | exception Http.Malformed _ -> None
          else None
        in
        match from_form with Some q -> Some q | None -> Some req.body
      end
  | None -> None

(* Classify what escapes a request's evaluation. An exception no error
   type names is a bug, answered as one: a 500, on this request only. *)
let attempt f =
  match f () with
  | v -> Ok v
  | exception Wdpt.Translate.Not_well_designed v ->
      Error
        (E.Not_well_designed (Fmt.str "%a" Sparql.Well_designed.pp_violation v))
  | exception e -> (
      match E.of_exn e with
      | Some err -> Error err
      | None -> Error (E.Internal (Printexc.to_string e)))

(* Admit, register for drain cancellation, run, release — on all
   paths. *)
let with_admission t ~idx ~starve f =
  if Atomic.get t.stop then `Draining
  else
    match Admission.try_admit ~starve t.admission with
    | Error (reason, retry) -> `Shed (reason, retry)
    | Ok lease ->
        Mutex.lock t.active_lock;
        Hashtbl.replace t.active idx lease.budget;
        Mutex.unlock t.active_lock;
        let finally () =
          Mutex.lock t.active_lock;
          Hashtbl.remove t.active idx;
          Mutex.unlock t.active_lock;
          Admission.release t.admission lease
        in
        `Ran (Fun.protect ~finally (fun () -> attempt (fun () -> f lease.budget)))

let retry_after retry =
  [ ("Retry-After", string_of_int (max 1 (int_of_float (Float.ceil retry)))) ]

let shed_response reason retry =
  let why =
    match reason with
    | Admission.Inflight_watermark -> "in-flight watermark reached"
    | Admission.Budget_watermark -> "global budget exhausted"
  in
  simple_error "overloaded" 503 ("request shed: " ^ why)
  |> fun (status, body) -> (status, body, retry_after retry)

let handle_sparql t conn ~deadline ~idx ~fault req =
  match query_of_request req with
  | None ->
      let status, body =
        simple_error "invalid_input" 400 "missing query parameter"
      in
      respond t conn ~deadline ~status body
  | Some query -> (
      let starve = fault = Some Faults.Starve in
      let outcome =
        with_admission t ~idx ~starve @@ fun budget ->
        (* one snapshot per request: the evaluation sees one store even
           if a reload lands mid-request *)
        let graph = Atomic.get t.graph in
        let key, entry, canon = plan_entry_for t ~budget query in
        Mutex.lock entry.lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock entry.lock)
          (fun () ->
            (* the fault is this request's own: it evicts the shared
               entry and fails only itself, never a request that happens
               to take the entry's lock first *)
            if fault = Some Faults.Poison then begin
              evict_entry t key;
              E.fail (E.Internal "poisoned plan-cache entry (injected)")
            end;
            results_body ~canon (Engine.answer_rows ~budget entry.plan graph))
      in
      match outcome with
      | `Draining ->
          let status, body =
            simple_error "draining" 503 "server is draining"
          in
          respond t conn ~deadline ~headers:(retry_after 1.) ~status body
      | `Shed (reason, retry) ->
          let status, body, headers = shed_response reason retry in
          respond t conn ~deadline ~headers ~status body
      | `Ran (Ok body) -> respond t conn ~deadline ~status:200 body
      | `Ran (Error e) ->
          let status, body =
            error_payload ~draining:(Atomic.get t.stop) e
          in
          respond t conn ~deadline ~status body)

let handle_analyze t conn ~deadline ~idx ~fault req =
  match query_of_request req with
  | None ->
      let status, body =
        simple_error "invalid_input" 400 "missing query parameter"
      in
      respond t conn ~deadline ~status body
  | Some query -> (
      let starve = fault = Some Faults.Starve in
      let outcome =
        with_admission t ~idx ~starve @@ fun budget ->
        match
          Analysis.Analyzer.of_source ~graph:(Atomic.get t.graph) ~budget
            ~source:"query" query
        with
        | Ok report -> Json.to_string (Analysis.Analyzer.to_json report)
        | Error e -> E.fail e
      in
      match outcome with
      | `Draining ->
          let status, body =
            simple_error "draining" 503 "server is draining"
          in
          respond t conn ~deadline ~headers:(retry_after 1.) ~status body
      | `Shed (reason, retry) ->
          let status, body, headers = shed_response reason retry in
          respond t conn ~deadline ~headers ~status body
      | `Ran (Ok body) -> respond t conn ~deadline ~status:200 body
      | `Ran (Error e) ->
          let status, body =
            error_payload ~draining:(Atomic.get t.stop) e
          in
          respond t conn ~deadline ~status body)

let stats_json t =
  let plan_totals =
    Mutex.lock t.plans_lock;
    let totals =
      Hashtbl.fold
        (fun _ e acc ->
          Plan_cache.add_stats acc (Plan_cache.stats e.plan.Engine.cache))
        t.plans t.plans_retired
    in
    let live = Hashtbl.length t.plans in
    Mutex.unlock t.plans_lock;
    (totals, live)
  in
  let totals, live = plan_totals in
  let p = totals.Plan_cache.pebble in
  let queue_depth =
    Mutex.lock t.queue_lock;
    let d = Queue.length t.queue in
    Mutex.unlock t.queue_lock;
    d
  in
  let fault_total =
    List.fold_left (fun acc (_, a) -> acc + Atomic.get a) 0 t.fault_counts
  in
  Json.Obj
    [ ( "server",
        Json.Obj
          [ ("uptime_s",
             Json.Float (Unix.gettimeofday () -. t.started_at));
            ("draining", Json.Bool (Atomic.get t.stop));
            ("requests", Json.Int (Atomic.get t.next_index - 1));
            ("inflight", Json.Int (Admission.inflight t.admission));
            ("queue_depth", Json.Int queue_depth);
            ("graph_epoch", Json.Int (Rdf.Graph.epoch (Atomic.get t.graph)));
            ("reloads", Json.Int (Atomic.get t.reloads));
            ("reload_failures", Json.Int (Atomic.get t.reload_failures)) ] );
      ( "responses",
        Json.Obj
          (List.map
             (fun (s, a) -> (string_of_int s, Json.Int (Atomic.get a)))
             t.responses
          @ [ ("disconnected", Json.Int (Atomic.get t.disconnects)) ]) );
      ( "admission",
        Json.Obj
          [ ("admitted", Json.Int (Admission.admitted t.admission));
            ("shed_inflight",
             Json.Int (Admission.shed_inflight t.admission));
            ("shed_tokens", Json.Int (Admission.shed_tokens t.admission));
            ("shed_queue", Json.Int (Atomic.get t.shed_queue));
            ("fuel_returned",
             Json.Int (Admission.fuel_returned t.admission));
            ( "bucket_level",
              match Admission.bucket_level t.admission with
              | Some n -> Json.Int n
              | None -> Json.Null ) ] );
      ( "faults",
        Json.Obj
          (List.map
             (fun (k, a) -> (Faults.kind_name k, Json.Int (Atomic.get a)))
             t.fault_counts
          @ [ ("total", Json.Int fault_total) ]) );
      ( "plan_cache",
        Json.Obj
          [ ("entries", Json.Int live);
            ("compiled", Json.Int (Atomic.get t.plans_compiled));
            ("entry_hits", Json.Int (Atomic.get t.plan_hits));
            ("canonical_hits", Json.Int (Atomic.get t.canonical_hits));
            ("entry_evictions", Json.Int (Atomic.get t.plan_evictions));
            ("hom_sources", Json.Int totals.Plan_cache.hom_sources);
            ( "decisions",
              Json.Obj
                [ ("hits", Json.Int totals.Plan_cache.decision_hits);
                  ("misses", Json.Int totals.Plan_cache.decision_misses) ] );
            ( "pebble",
              Json.Obj
                [ ("hits", Json.Int p.Pebble_cache.hits);
                  ("misses", Json.Int p.Pebble_cache.misses);
                  ("compiled", Json.Int p.Pebble_cache.compiled);
                  ("evictions", Json.Int p.Pebble_cache.evictions) ] );
            ( "child_joins",
              Json.Obj
                [ ("runs", Json.Int totals.Plan_cache.joins.runs);
                  ("extensions", Json.Int totals.Plan_cache.joins.extensions);
                  ("capped", Json.Int totals.Plan_cache.joins.capped);
                  ( "pebble",
                    Json.Int totals.Plan_cache.joins.pebble_answers ) ] );
            ("rows", Json.Int totals.Plan_cache.rows);
            ("answers", Json.Int totals.Plan_cache.answers);
            ( "candidates_per_answer",
              Json.Float (Plan_cache.candidates_per_answer totals) ) ] ) ]

let route t conn ~deadline ~idx ~fault req =
  match (req.Http.meth, req.Http.path) with
  | "GET", "/health" ->
      let status =
        if Atomic.get t.stop then "draining" else "ok"
      in
      respond t conn ~deadline ~status:200
        (Json.to_string (Json.Obj [ ("status", Json.String status) ]))
  | "GET", "/stats" ->
      respond t conn ~deadline ~status:200 (Json.to_string (stats_json t))
  | ("GET" | "POST"), "/sparql" ->
      handle_sparql t conn ~deadline ~idx ~fault req
  | ("GET" | "POST"), "/analyze" ->
      handle_analyze t conn ~deadline ~idx ~fault req
  | _, ("/health" | "/stats" | "/sparql" | "/analyze") ->
      let status, body =
        simple_error "invalid_input" 405 "method not allowed"
      in
      respond t conn ~deadline ~status body
  | _ ->
      let status, body = simple_error "not_found" 404 "no such endpoint" in
      respond t conn ~deadline ~status body

let handle_conn t ((conn, idx, fault) : job) =
  Fun.protect
    ~finally:(fun () -> Io.close conn)
    (fun () ->
      let deadline = Unix.gettimeofday () +. t.config.io_timeout in
      (match fault with
      | Some Faults.Disconnect -> Io.inject_read_fault conn Io.Drop
      | Some Faults.Slow -> Io.inject_read_fault conn Io.Stall
      | _ -> ());
      match
        Http.read_request
          ~mangle:(fault = Some Faults.Malformed)
          conn ~deadline ~max_bytes:t.config.max_request_bytes
      with
      | req -> route t conn ~deadline ~idx ~fault req
      | exception Io.Disconnected -> Atomic.incr t.disconnects
      | exception Io.Timeout ->
          (* the read deadline tripped (slow client); the socket is
             usually still writable — try to say so, briefly *)
          let deadline = Unix.gettimeofday () +. 1.0 in
          let status, body =
            simple_error "timeout" 408 "request not received in time"
          in
          respond t conn ~deadline ~status body
      | exception Io.Too_large ->
          let status, body =
            simple_error "invalid_input" 413 "request too large"
          in
          respond t conn ~deadline ~status body
      | exception Http.Malformed msg ->
          let status, body =
            simple_error "malformed_request" 400 ("malformed request: " ^ msg)
          in
          respond t conn ~deadline ~status body)

(* ------------------------------------------------------------------ *)
(* Threads                                                             *)
(* ------------------------------------------------------------------ *)

(* Block until a connection is queued or the drain starts. [stop] is
   re-checked under [queue_lock] before every wait, and [join]
   broadcasts under the same lock after setting it, so no worker can
   miss the wake-up. [None] means the drain started and the queue is
   empty: the worker is done. *)
let pop_job t =
  Mutex.lock t.queue_lock;
  while Queue.is_empty t.queue && not (Atomic.get t.stop) do
    Condition.wait t.queue_ready t.queue_lock
  done;
  let j = Queue.take_opt t.queue in
  Mutex.unlock t.queue_lock;
  j

(* Plans outlive a reload, but a plan that is not asked again would pin
   the store of its last evaluation: release the store artefacts of
   every idle plan. A plan under evaluation keeps its store until its
   next evaluation replaces it. The plans are listed under [plans_lock]
   and locked one at a time after it is released, because an evaluation
   holding its plan's lock may take [plans_lock] ([evict_entry]). *)
let release_stores t =
  Mutex.lock t.plans_lock;
  let plans = Hashtbl.fold (fun _ e acc -> e :: acc) t.plans [] in
  Mutex.unlock t.plans_lock;
  List.iter
    (fun e ->
      if Mutex.try_lock e.lock then
        Fun.protect
          ~finally:(fun () -> Mutex.unlock e.lock)
          (fun () -> Plan_cache.release e.plan.Engine.cache))
    plans

(* Service a pending reload before serving the dequeued request: a
   reload requested while the server idles lands before the next
   request, and no thread polls for the flag. The compare-and-set means
   exactly one worker runs the thunk; the graph handle is swapped whole,
   so connections never see a half-reloaded store and none are dropped.
   A failing reload (e.g. a broken segment chain just appended) keeps
   the old graph serving and is only counted. *)
let maybe_reload t =
  match t.config.reload with
  | None -> ()
  | Some thunk ->
      if Atomic.compare_and_set t.reload_pending true false then (
        match thunk () with
        | g ->
            Atomic.set t.graph g;
            Atomic.incr t.reloads;
            release_stores t
        | exception _ -> Atomic.incr t.reload_failures)

(* Once draining, queued requests are not evaluated — they get a prompt
   503 instead of silently timing out in the queue. *)
let run_job t job =
  if Atomic.get t.stop then
    let conn, _, _ = job in
    Fun.protect
      ~finally:(fun () -> Io.close conn)
      (fun () ->
        let deadline = Unix.gettimeofday () +. 1.0 in
        let status, body = simple_error "draining" 503 "server is draining" in
        respond t conn ~deadline ~headers:(retry_after 1.) ~status body)
  else begin
    maybe_reload t;
    handle_conn t job
  end

let worker_loop t =
  let rec serve () =
    match pop_job t with
    | Some job ->
        (* what one connection raises closes that connection (both paths
           of [run_job] close it), and the worker takes the next job *)
        (try run_job t job with _ -> ());
        serve ()
    | None -> ()
  in
  (try serve () with _ -> ());
  Atomic.incr t.workers_done

let accept_loop t =
  let rec loop () =
    if Atomic.get t.stop then ()
    else begin
      (match Unix.select [ t.listener ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept t.listener with
          | fd, _ ->
              let conn = Io.of_fd fd in
              let idx = Atomic.fetch_and_add t.next_index 1 in
              let fault = Faults.for_request t.config.faults idx in
              count_fault t fault;
              Mutex.lock t.queue_lock;
              let depth = Queue.length t.queue in
              if depth >= t.config.queue_capacity then begin
                Mutex.unlock t.queue_lock;
                (* queue watermark: shed right here on the accept
                   thread, before any work is queued *)
                Atomic.incr t.shed_queue;
                Fun.protect
                  ~finally:(fun () -> Io.close conn)
                  (fun () ->
                    let deadline = Unix.gettimeofday () +. 1.0 in
                    let status, body =
                      simple_error "overloaded" 503
                        "request shed: queue watermark reached"
                    in
                    respond t conn ~deadline ~headers:(retry_after 1.)
                      ~status body)
              end
              else begin
                Queue.push (conn, idx, fault) t.queue;
                Condition.signal t.queue_ready;
                Mutex.unlock t.queue_lock
              end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  (try loop () with _ -> ());
  try Unix.close t.listener with Unix.Unix_error _ -> ()

let start config =
  (* a dying peer must not kill the process mid-write *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let t = create config in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t.worker_threads <-
    List.init config.workers (fun _ -> Thread.create worker_loop t);
  t

let initiate_drain t = Atomic.set t.stop true
let request_reload t = Atomic.set t.reload_pending true

let cancel_active t =
  Mutex.lock t.active_lock;
  Hashtbl.iter (fun _ b -> Budget.cancel b) t.active;
  Mutex.unlock t.active_lock

(* Wake every worker blocked in [pop_job] so it re-checks [stop]. The
   signal handler only sets the flag — it must not take [queue_lock] —
   so the broadcast is [join]'s job. *)
let wake_workers t =
  Mutex.lock t.queue_lock;
  Condition.broadcast t.queue_ready;
  Mutex.unlock t.queue_lock

(* Wait for the drain to be initiated, then see it through: the accept
   thread closes the listener and exits; then, repeatedly until the
   workers have flushed the queue with 503s and exited, in-flight
   budgets are cancelled (to catch requests admitted in the race window)
   and idle workers are woken. Returns the final stats snapshot. *)
let join t =
  while not (Atomic.get t.stop) do
    Thread.delay 0.02
  done;
  Option.iter Thread.join t.accept_thread;
  t.accept_thread <- None;
  let n = List.length t.worker_threads in
  while Atomic.get t.workers_done < n do
    cancel_active t;
    wake_workers t;
    Thread.delay 0.01
  done;
  List.iter Thread.join t.worker_threads;
  t.worker_threads <- [];
  stats_json t

let install_signal_handlers t =
  let handler = Sys.Signal_handle (fun _ -> initiate_drain t) in
  (try Sys.set_signal Sys.sigterm handler
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigint handler
   with Invalid_argument _ | Sys_error _ -> ());
  (* SIGHUP = pick up appended delta segments; only sets a flag, the
     worker that dequeues the next connection does the load first *)
  try Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> request_reload t))
  with Invalid_argument _ | Sys_error _ -> ()

let run config =
  let t = start config in
  install_signal_handlers t;
  Fmt.pr "wdsparql: listening on http://%s:%d (workers %d)@." config.host
    t.port config.workers;
  (match Faults.to_string config.faults with
  | "" -> ()
  | spec -> Fmt.pr "wdsparql: fault injection armed: %s@." spec);
  let final = join t in
  Fmt.pr "%s@." (Json.to_string final);
  ()
