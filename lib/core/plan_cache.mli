(** Plan-level cache: compiled evaluation artefacts reused across
    repeated {!Engine.solutions} and {!Engine.check} calls on the same
    plan.

    A plan's graph-dependent state is (1) the dictionary-encoded copy of
    the graph and (2), per tree node, every artefact of the Lemma-1
    child test: the compiled hom-join source (compiled against a
    tree-wide shared variable table, so enumeration assignments are
    flat int arrays), its cost-based join order, the cap of its exact
    search, the pebble game per [k] (compiled the first time the cap
    trips, or the first time {!Pebble_eval} asks), and two verdict
    memos, exact and relaxed, that never answer for each other. This
    module holds them in a small most-recently-used store keyed on the
    graph's {!Rdf.Graph.epoch} (epochs are unique per construction):
    evaluating the same plan against a recently-seen store reuses
    everything, and only past the capacity does the coldest entry get
    dropped.

    All artefacts are compiled on demand, so a cache costs nothing until
    the first evaluation touches it. *)

open Rdf

type t

type maximality = [ `Hom | `Pebble of int ]
(** The Lemma-1 child test: exact only, or exact first with the
    existential (k+1)-pebble game past a cap ({!stage_child_test}). *)

type tests = {
  exact : int;
      (** child tests answered by the id-level exact test, memo hits
          included *)
  exact_hits : int;  (** of those, answered from the exact-verdict memo *)
  pebble_answers : int;
      (** child tests answered by the pebble game: past a tripped cap,
          or asked by {!Pebble_eval} *)
  capped : int;
      (** exact searches cut by the cap (each handed its test to the
          pebble game) *)
}

type stats = {
  pebble : Pebble_cache.stats;
      (** games compiled and relaxed-verdict counters, accumulated over
          every entry this cache has held, including ones dropped by
          eviction *)
  tests : tests;  (** likewise accumulated *)
  hom_sources : int;  (** node join sources compiled over the lifetime *)
  invalidations : int;
      (** entries built for a store epoch the cache did not hold while
          it already held others — the old single-entry cache's
          invalidation count (the first-ever build is free) *)
  plan_evictions : int;
      (** entries dropped because the store capacity was exceeded *)
  live_entries : int;  (** entries currently held *)
  decision_hits : int;
      (** join-order decisions served from the cross-tree
          {!Optimizer.Decision_cache} memo — structurally identical node
          joins (same patterns up to slot renaming, same bound split,
          same store epoch) planned once *)
  decision_misses : int;  (** decisions actually compiled *)
}

val create : ?plan_capacity:int -> unit -> t
(** [plan_capacity] bounds how many stores are cached at once (default
    4; raises [Invalid_argument] if [< 1]). Each node's verdict tables
    stop growing at 2^16 entries: later verdicts are computed but not
    remembered. *)

val encoded : t -> Graph.t -> Encoded.Encoded_graph.t
(** The encoded copy of [graph] for its entry (building the entry, and
    possibly evicting the coldest one, if [graph]'s epoch is absent). *)

val node_source :
  t -> Graph.t -> Wdpt.Pattern_tree.t -> Wdpt.Pattern_tree.node ->
  Encoded.Encoded_hom.source
(** The compiled hom-join source of [pat tree n] against [graph],
    compiled on first use and reused while [graph]'s entry stays
    cached. All sources of one tree share one variable table (the
    decode table of each). *)

val node_decision :
  ?budget:Resource.Budget.t ->
  t -> Graph.t -> Wdpt.Pattern_tree.t -> Wdpt.Pattern_tree.node ->
  Optimizer.Join_order.decision
(** The cost-based plan of node [n] against [graph]'s statistics: join
    order and per-step cardinality estimates, compiled on first use
    ({!Optimizer.Join_order}) with the node's ancestors as the
    bound-variable seed, and cached for as long as [graph]'s epoch
    entry lives — the server's cross-connection plan cache serves these
    without re-deriving anything. *)

val exact_cap :
  t -> Graph.t -> Wdpt.Pattern_tree.t -> Wdpt.Pattern_tree.node -> int -> int
(** [exact_cap t graph tree n k]: the tick cap of node [n]'s exact
    test under [`Pebble k] — the pebble game's own polynomial bound
    [d^(k+1)], with [d] the largest candidate domain [n]'s game ranges
    over ({!Encoded.Encoded_pebble.domain_bound}: a free variable's
    µ-independent unary candidates, else the whole store dictionary;
    at least 2), saturating at [max_int - 1]. Memoised per node for
    [graph]'s epoch. Not configurable. *)

type worker
(** One pool slot's private side of the tests: verdict memos and
    counters per node, made for one store entry. *)

val worker : t -> Graph.t -> worker
(** A worker for [graph]'s entry, made on the caller's domain. *)

val absorb_worker : t -> Wdpt.Pattern_tree.t -> worker -> unit
(** Fold a worker's counters (tests of [tree]'s nodes) into the cache
    after the workers quiesced, and empty the worker. Counters of an
    entry evicted meanwhile go to the retired totals. *)

type pebble_test
(** Node [n]'s relaxed child test at [k]: the game on
    [(pat(n), shared)], [shared] being [n]'s variables on its ancestor
    path. *)

val pebble_test :
  t -> Graph.t -> k:int -> Wdpt.Pattern_tree.t -> Wdpt.Pattern_tree.node ->
  pebble_test
(** Resolve node [n]'s relaxed test against [graph]'s entry. Raises
    [Invalid_argument "Plan_cache.pebble_test: k must be at least 1"]
    if [k < 1]. *)

val run_pebble :
  ?budget:Resource.Budget.t -> ?worker:worker -> pebble_test -> int array ->
  bool
(** The relaxed test [(pat(T') ∪ pat(n), vars(T')) →µ_{k+1} G] for the
    flat id assignment µ over the tree's variable table, pure pebble
    game with no exact search first. µ must cover [vars(T')] for a
    subtree [T'] that [n] is a child of, and µ(pat T') ⊆ G must already
    hold — the anchor half of the test, which both callers prove before
    asking (the join built µ, or {!Wdpt.Subtree.matching} found T^µ).
    Verdicts are memoized per node and [k], keyed on µ|shared, on the
    cache or on [worker]; the game is compiled on the first miss.
    Budget-transparent: ticks once per call, plus the game's ticks. *)

type child_test
(** The Lemma-1 test of one child [n], resolved against the cache. *)

val stage_child_test :
  ?order:int array ->
  t -> Graph.t -> maximality -> Wdpt.Pattern_tree.t ->
  Wdpt.Pattern_tree.node -> child_test
(** Stage the test "does some homomorphism of [pat tree n] extend the
    candidate?" for child [n]. Touches the cache's tables, so call it on
    the caller's domain; [order] is the child join's tie-break order
    ({!Encoded.Encoded_hom.fold}). Under [`Pebble k] it stages
    {!pebble_test} too, with its check of [k]. *)

val run :
  ?budget:Resource.Budget.t -> ?worker:worker -> child_test -> int array -> bool
(** The per-candidate test on the flat id assignment of the tree's
    variable table (which must cover [vars(subtree)]). Exact verdicts
    are memoized keyed on the assignment's values at the child's
    {!Encoded.Encoded_hom.own_slots} — the only slots the answer depends
    on — on the cache for as long as [graph]'s epoch entry lives, or on
    [worker].

    - [`Hom]: the exact test.
    - [`Pebble k]: the exact test first, under a {!Resource.Budget.capped}
      cap of {!exact_cap} ticks; only when the cap trips is the node's
      relaxed test ({!run_pebble}) asked instead, and the key is
      remembered as capped so it goes straight to the game next time.
      Per candidate the cost stays within a constant factor of the
      game's worst-case bound, so the PTIME guarantee holds. The game's
      measured cost can be far below that bound (at k ≥ 2, or when
      µ-bound unary triples narrow its domains); a child whose exact
      search fits under the cap but not under the game's measured cost
      runs the search to the end. A single relaxed test may
      over-approximate an exact one, but both decide "some child
      extends" alike whenever [dw ≤ k] (Theorem 1 with Lemma 1), so any
      mix is exact there.

    Budget-transparent: ticks once per call, the exact search's ticks
    (inside the cap too) and the game's are charged to [budget]. *)

val node_tests :
  t -> Graph.t -> Wdpt.Pattern_tree.t -> Wdpt.Pattern_tree.node -> tests
(** Counters of node [n]'s child tests against [graph]'s entry so far. *)

val stats : t -> stats

val zero_stats : stats

val add_stats : stats -> stats -> stats
(** Field-wise sum (the server totals its plans' caches with it). *)

val pp_tests : tests Fmt.t
val pp_stats : stats Fmt.t
