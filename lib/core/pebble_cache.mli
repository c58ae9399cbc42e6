(** Evaluation-wide cache for the Theorem-1 pebble-game child tests.

    A single evaluation ({!Pebble_eval.check}/[solutions], or the child
    tests {!Enumerate.solutions} hands over past their exact-search cap
    under [`Pebble k]) issues the relaxed
    extension test [(pat(T') ∪ pat(n), vars(T')) →µ_{k+1} G] for many
    (mapping, subtree, child) combinations against one fixed graph. This
    layer is the engine's only kernel for that test, and makes the
    repeated work incremental:

    - the graph is dictionary-encoded once ({!Encoded_graph}), shared by
      every test;
    - each (subtree, child) game is compiled once
      ({!Encoded_pebble.compile}), including its µ-independent unary
      candidate domains, and replayed across candidate mappings;
    - verdicts are memoized keyed on µ restricted to the variables the
      child shares with the subtree — sound because the union game
      decomposes exactly into "subtree pattern ground under µ is in G"
      plus the game on [(pat(n), shared)] with [µ|shared].

    Results are identical to {!Pebble.Pebble_game.wins} on the union
    game (cross-checked by qcheck in the tests, where that term-level
    game is the oracle). *)

open Rdf

type t

type stats = {
  hits : int;
  misses : int;
  compiled : int;
  families : int;
  evictions : int;
  unary_hits : int;
  unary_misses : int;
}
(** [hits]/[misses]: verdict-memo outcomes; [compiled]: child games
    compiled; [families]: partial-homomorphism families enumerated by
    the kernel on behalf of this cache; [evictions]: verdicts dropped by
    the LRU capacity bound; [unary_hits]/[unary_misses]: µ-independent
    unary candidate domains reused across game compiles vs actually
    scanned (the per-(tree, store) sharing of base domains). *)

val create : ?memo:bool -> ?verdict_capacity:int -> Graph.t -> t
(** A cache for evaluations against [graph]. [memo:false] disables both
    game reuse and verdict memoization (every call recompiles and
    replays) while still counting work — the A6 ablation baseline.
    [verdict_capacity] bounds the number of memoized verdicts across
    {e all} games of this cache (least-recently-used eviction; default
    [2^20]), so enumerations over huge µ|shared spaces stop growing
    without bound. Raises [Invalid_argument] if it is [< 1]. *)

val graph : t -> Graph.t
(** The graph this cache was created for. Callers must not use the
    cache against any other graph ({!Pebble_eval} raises
    [Invalid_argument] on an epoch mismatch). *)

val child_test :
  t ->
  ?budget:Resource.Budget.t ->
  k:int ->
  Wdpt.Pattern_tree.t ->
  Sparql.Mapping.t ->
  Wdpt.Subtree.t ->
  Wdpt.Pattern_tree.node ->
  bool
(** The relaxed extension test
    [(pat(T') ∪ pat(n), vars(T')) →µ_{k+1} G] for a term mapping µ, as
    {!Pebble_eval.check} issues it. Budget-transparent: ticks through
    {!Encoded_pebble.run} on misses and at least once on hits. Raises
    [Invalid_argument] if [k < 1].

    Precondition: [dom µ = vars(subtree)] — which is exactly what
    {!Wdpt.Subtree.matching} produces. (The union game would ground a
    child variable bound by a larger µ, whereas the compiled game
    quantifies it existentially.) *)

val stage_child_test_ids :
  t ->
  ?budget:Resource.Budget.t ->
  k:int ->
  Wdpt.Pattern_tree.t ->
  vars:Variable.t array ->
  Wdpt.Subtree.t ->
  Wdpt.Pattern_tree.node ->
  int array ->
  bool
(** Id-level, staged variant of {!child_test} for the enumerator:
    resolves the game and the param-to-slot tables once for a
    (subtree, child) pair and returns the per-candidate test. A
    candidate is the flat dictionary-id assignment over the shared
    variable table [vars] (the one all of a tree's
    {!Plan_cache.node_source}s use) instead of a term mapping, so no
    decode/re-encode round-trip happens per candidate.
    The assignment must cover [vars(subtree)] with ids valid for this
    cache's graph (which the encoded join guarantees). Same precondition
    and verdict memoization as {!child_test}; param-to-slot resolution
    is cached per game keyed on [vars]'s physical identity. *)

val worker_view : t -> t
(** A domain-private view over the same cache for one pool worker.
    Compiled child games are shared with the root cache read-only
    (compile-or-lookup is serialised on the root, under a mutex);
    everything mutable — verdict tables, the LRU recency list, the
    per-game slot memos, the hit/miss/family/eviction counters — is
    private to the view, so workers never contend after a game exists.
    A view must only ever be used by one domain at a time; hand its
    counters back with {!absorb} when the parallel region ends.
    Views of a view share the one root. *)

val worker_view_for : t -> int -> t
(** The memoized {!worker_view} of this cache for pool slot [slot]:
    one view per slot, created on first use and kept on the root, so a
    worker's verdict memo stays warm across evaluations that reuse the
    same pool. *)

val absorb : t -> t -> unit
(** [absorb t view] folds [view]'s counters into [t] (the root) and
    zeroes them on the view, so {!stats} of the root reports the whole
    evaluation including parallel work. Call after the workers have
    quiesced (the pool's batch completion is the synchronisation
    point). Unary-domain counters live on the shared root already and
    are not double-counted. *)

val absorb_views : t -> unit
(** {!absorb} every memoized worker view of this cache's root. What the
    enumerator calls when a parallel evaluation ends. *)

val stats : t -> stats
val pp_stats : stats Fmt.t
