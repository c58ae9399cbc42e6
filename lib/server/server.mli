(** The long-running SPARQL endpoint: an accept thread feeding a bounded
    queue of worker threads — idle workers block on a condition variable
    and the accept thread wakes one per queued connection, so no worker
    polls — every request under a private {!Resource.Budget} carved from
    {!Admission}, overload shed promptly at three watermarks
    (accept-queue depth, in-flight count, global token bucket) with
    [503 + Retry-After], graceful drain on SIGINT/SIGTERM. See
    docs/ROBUSTNESS.md for the overload policy and the HTTP ↔
    error-taxonomy table.

    Routes: [GET/POST /sparql?query=…] (SPARQL JSON results),
    [GET/POST /analyze?query=…] (the static analyzer's JSON report),
    [GET /health], [GET /stats]. *)

type config = {
  graph : Rdf.Graph.t;
  reload : (unit -> Rdf.Graph.t) option;
      (** how to re-resolve the graph on {!request_reload} — e.g. reload
          a store file, picking up freshly appended delta segments.
          [None] disables reloading. *)
  host : string;
  port : int;  (** 0 = pick an ephemeral port; see {!port} *)
  workers : int;  (** worker threads handling connections *)
  domains : int;  (** parallelism inside a single evaluation *)
  queue_capacity : int;  (** accept-queue watermark *)
  admission : Admission.config;
  max_request_bytes : int;
  io_timeout : float;  (** per-connection read/write deadline, seconds *)
  faults : Faults.t;
  plan_capacity : int;  (** distinct cached query plans *)
}

type t

val start : config -> t
(** Bind, listen, and spawn the accept and worker threads. Raises
    [Unix.Unix_error] if the address cannot be bound; raises
    [Invalid_argument] on non-positive [workers] / [queue_capacity] /
    [plan_capacity]. *)

val port : t -> int
(** The bound port (the actual one when [config.port] was [0]). *)

val draining : t -> bool

val initiate_drain : t -> unit
(** Begin graceful shutdown: stop accepting, answer queued connections
    with [503 draining], cancel in-flight budgets. Async-signal-safe
    (only sets a flag); {!join} does the actual work, including waking
    the idle workers. *)

val join : t -> Analysis.Json.t
(** Block until a drain is initiated (by {!initiate_drain} or a signal
    handler), then see it through — listener closed, idle workers woken,
    queue flushed with prompt 503s, in-flight budgets cancelled via
    [Budget.cancel], threads joined — and return the final stats
    snapshot (the same document [/stats] serves). Its [plan_cache]
    section counts plans, one per canonical query form ([compiled],
    [entry_hits], [canonical_hits], [entry_evictions]), and totals the
    plans' caches:
    - [pebble]: the relaxed child tests — [hits]/[misses] of the
      per-node verdict memos, games [compiled] (one per node and [k]),
      and [evictions], the verdicts computed but not remembered because
      their node's memo was full;
    - [child_joins]: [runs], the child joins run (one per parent row
      and child); [extensions], the extensions they produced; [capped],
      the joins whose search for a first extension tripped the cap;
      [pebble], the relaxed tests the game answered;
    - [rows], the rows the trees' walks emitted; [answers], the
      distinct answers; [candidates_per_answer], their ratio (1 on
      single-tree patterns; a UNION can emit an answer once per tree).
    *)

val request_reload : t -> unit
(** Ask for the graph to be re-resolved through [config.reload] (a no-op
    when it is [None]). Async-signal-safe (only sets a flag): the worker
    that dequeues the next connection runs the thunk first, before
    serving that connection, and swaps the graph handle atomically. No
    connection is dropped; in-flight evaluations, and requests other
    workers pick up while the thunk runs, finish on the store they
    started with. Cached plans survive the reload: plans are keyed on
    the query's canonical form alone, because parsing, pruning, width
    estimation and planning read no store. The reload releases each idle
    plan's store-dependent artefacts (encoded store, join sources, join
    orders, games; {!Wd_core.Plan_cache.release}), so no plan pins the
    old store, and the plan's next evaluation rebuilds them for the new
    one. A plan under evaluation during the reload keeps its store until
    its next evaluation replaces it. A failing reload keeps the old
    graph and increments the [reload_failures] stat. *)

val install_signal_handlers : t -> unit
(** Route SIGINT and SIGTERM to {!initiate_drain}, and SIGHUP to
    {!request_reload} (pick up appended delta segments without a
    restart). *)

val stats_json : t -> Analysis.Json.t
(** The live stats document: request/response counters, admission and
    shed counters, injected-fault counters, plan-cache totals (live
    entries plus a retired accumulator, so totals are monotonic across
    evictions). *)

val run : config -> unit
(** [start] + {!install_signal_handlers} + {!join}: print the listening
    line, serve until signalled, flush the final stats to stdout. *)
