(** Fixed-size domain pool with a chunked work queue.

    Built on OCaml 5 stdlib primitives only ([Domain], [Mutex],
    [Condition], [Atomic]) — no external scheduler. A pool of size [n]
    owns [n - 1] spawned domains; the caller of {!fold_ordered}
    participates as worker slot 0, so [size:1] spawns nothing and runs
    the batch inline — byte-for-byte the sequential path.

    Batches are {e chunked}: the input list is split into contiguous
    chunks that workers pull from a shared queue (work stealing between
    the spawned domains and the caller). Output order is always the
    input order, regardless of which worker processed which chunk.

    Cancellation is cooperative and has two levels:
    - a batch-level flag checked {e per item}, set when any worker's
      [f] raises or the caller's [merge] raises — remaining items are
      skipped and the first exception is re-raised with its backtrace;
    - callers running under a {!Resource.Budget} should hand each
      worker a forked view ({!Resource.Budget.fork}) so deadline/fuel
      exhaustion inside a long-running item also trips the sibling
      workers at their next budget tick. *)

type t

val create : domains:int -> unit -> t
(** A pool of total size [domains] (clamped to [[1, 128]]): [domains - 1]
    background domains are spawned immediately and wait on the queue.
    A pool of size 1 owns no domains and costs nothing. *)

val size : t -> int
(** Total parallelism, counting the participating caller. *)

val shutdown : t -> unit
(** Drain the queue, stop and join every spawned domain. Idempotent.
    Running batches finish first (shutdown only takes effect between
    jobs). *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exceptions). *)

val borrow : domains:int -> (t -> 'a) -> 'a
(** Like {!with_pool} but reuses one cached global pool per size, so
    repeated evaluations don't pay domain spawn latency every call.
    If the cached pool of this size is already borrowed (re-entrant or
    cross-domain use), a fresh throwaway pool is used instead —
    borrowing never blocks and never shares a pool between two
    concurrent batches. *)

val fold_ordered :
  t ->
  ?chunk:int ->
  init:(int -> 'w) ->
  f:('w -> 'a -> 'b) ->
  merge:('acc -> 'b -> 'acc) ->
  'acc ->
  'a list ->
  'acc
(** [fold_ordered pool ~init ~f ~merge acc items] maps [f] over [items]
    on the pool's workers and folds the results with [merge] {e on the
    calling domain, in input order} — the merge sees exactly the
    sequence a sequential [List.fold_left] would, so order-sensitive
    accumulation (deduplicating counters, solution caps) behaves
    identically.

    [init slot] builds worker-local state lazily, at most once per
    worker slot ([0 .. size-1]) per batch, on the domain that owns the
    slot — the place to stage per-batch tables or grab a
    {!Resource.Budget.fork} view. [f] must not touch shared mutable
    state; [merge] runs only on the caller and may.

    Chunks are [chunk] items long (default: sized so each worker gets
    several chunks, for load balance). If [f] raises anywhere, or
    [merge] raises, the batch is cancelled cooperatively (remaining
    items are skipped, checked per item) and the first exception is
    re-raised. A pool of size 1 — or an [items] list shorter than 2 —
    runs everything inline without touching the queue. *)
