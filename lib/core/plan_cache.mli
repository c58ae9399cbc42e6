(** Plan-level cache: compiled evaluation artefacts reused across
    repeated {!Engine.solutions} and {!Engine.check} calls on the same
    plan.

    This module is the one place that knows which store an artefact
    belongs to. A plan's store-dependent state lives in one {e entry}
    per store, keyed on the graph's {!Rdf.Graph.epoch} (epochs are
    unique per construction):
    - the dictionary-encoded copy of the graph;
    - the store's µ-independent unary candidate domains, shared by every
      pebble game compiled against it;
    - a table of join orders keyed on {!Optimizer.Join_order.signature},
      so isomorphic node joins of any of the plan's trees are planned
      once per store;
    - per tree node, every artefact of its child join: the compiled
      hom-join source (compiled against a tree-wide shared variable
      table, so enumeration rows are flat int arrays), its join order,
      the cap of its search for a first extension, the pebble game per
      [k] (compiled the first time the cap trips, or the first time
      {!Pebble_eval} asks), and the game's relaxed-verdict memo.

    Entries sit in a small most-recently-used list: evaluating the same
    plan against a recently-seen store reuses everything, and only past
    the capacity is the coldest entry dropped, with everything compiled
    against its store. Its counters are kept in a retired tally, so
    {!stats} covers the plan's whole history.

    All artefacts are compiled on demand, so a cache costs nothing until
    the first evaluation touches it.

    A cache is single-writer: one evaluation at a time may use it (the
    server holds a per-plan lock around each). {!stats} may be read
    concurrently with an evaluation; it reads counters only, never the
    compiled artefacts. *)

open Rdf

type t

type maximality = [ `Hom | `Pebble of int ]
(** How a child join decides that a child is left out: exact only, or
    exact first with the existential (k+1)-pebble game past a cap
    ({!extensions}). *)

type joins = {
  runs : int;  (** child joins run: one per parent row and child *)
  extensions : int;  (** extensions those joins produced *)
  capped : int;
      (** joins whose search for a first extension tripped the cap, so
          the pebble game was asked *)
  pebble_answers : int;
      (** relaxed child tests answered by the pebble game: past a
          tripped cap, or asked by {!Pebble_eval} *)
}

type stats = {
  pebble : Pebble_cache.stats;
      (** games compiled, relaxed-verdict and unary-domain counters,
          accumulated over every entry this cache has held, including
          ones dropped by eviction *)
  joins : joins;  (** likewise accumulated *)
  rows : int;
      (** rows the trees' walks emitted, over every evaluation: a UNION
          forest can emit one answer once per tree *)
  answers : int;  (** distinct answers of those evaluations *)
  hom_sources : int;  (** node join sources compiled over the lifetime *)
  invalidations : int;
      (** entries built for a store epoch the cache did not hold while
          it already held others — the old single-entry cache's
          invalidation count (the first-ever build is free) *)
  plan_evictions : int;
      (** entries dropped because the store capacity was exceeded *)
  live_entries : int;  (** entries currently held *)
  decision_hits : int;
      (** nodes whose join order came from their entry's table: an
          earlier node of any tree had the same
          {!Optimizer.Join_order.signature} (patterns up to slot
          renaming, same bound split) against the same store *)
  decision_misses : int;  (** join orders actually compiled *)
}

val candidates_per_answer : stats -> float
(** [rows / answers]: 1 on a single tree, whose walk builds each answer
    once; [0.] before any answer. *)

val create : ?plan_capacity:int -> unit -> t
(** [plan_capacity] bounds how many stores are cached at once (default
    4; raises [Invalid_argument] if [< 1]). Each node's relaxed-verdict
    memo stops growing at 2^16 entries: later verdicts are computed but
    not remembered. *)

val release : t -> unit
(** Drop every entry, with everything compiled against its store, and
    keep its counters in the retired tally: the cache then pins no
    store until the next evaluation builds an entry. Not counted as an
    eviction or an invalidation. The server calls it on its idle plans
    after a reload. *)

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
    bound-variable seed, or taken from an isomorphic node's (see
    [decision_hits]), and cached for as long as [graph]'s epoch entry
    lives — the server's cross-connection plan cache serves these
    without re-deriving anything. *)

val exact_cap :
  t -> Graph.t -> Wdpt.Pattern_tree.t -> Wdpt.Pattern_tree.node -> int -> int
(** [exact_cap t graph tree n k]: the tick cap of node [n]'s search for
    a first extension under [`Pebble k] — the pebble game's own
    polynomial bound [d^(k+1)], with [d] the largest candidate domain
    [n]'s game ranges over ({!Encoded.Encoded_pebble.domain_bound}: a
    free variable's µ-independent unary candidates, else the whole store
    dictionary; at least 2), saturating at [max_int - 1]. Memoised per
    node for [graph]'s epoch. Not configurable. *)

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
  ?budget:Resource.Budget.t -> pebble_test -> int array -> bool
(** The relaxed test [(pat(T') ∪ pat(n), vars(T')) →µ_{k+1} G] for the
    flat id assignment µ over the tree's variable table, pure pebble
    game with no exact search first. µ must cover [vars(T')] for a
    subtree [T'] that [n] is a child of, and µ(pat T') ⊆ G must already
    hold — the anchor half of the test, which both callers prove before
    asking (the join built µ, or {!Wdpt.Subtree.matching} found T^µ).
    Verdicts are memoized per node and [k], keyed on µ|shared; the game
    is compiled on the first miss.
    Budget-transparent: ticks once per call, plus the game's ticks. *)

type child_join
(** The join of one child [n] with its parent's rows, resolved against
    the cache. *)

val stage_child_join :
  ?order:int array ->
  t -> Graph.t -> maximality -> Wdpt.Pattern_tree.t ->
  Wdpt.Pattern_tree.node -> child_join
(** Stage node [n]'s child join; [order] is the join's tie-break order
    ({!Encoded.Encoded_hom.fold}). Under [`Pebble k] it stages
    {!pebble_test} too, with its check of [k]. *)

val fresh_slots : child_join -> int array
(** The slots of the variables [n] introduces: those of [pat n] that no
    ancestor binds. An extension differs from its parent row only
    there. *)

val extensions :
  ?budget:Resource.Budget.t ->
  child_join -> int array -> (int array -> unit) -> unit
(** [extensions cj row f] calls [f] on every extension of the parent row
    [row] (a flat id row over the tree's variable table, binding at
    least [n]'s ancestors) by a homomorphism of [pat n], and never when
    [n] is left out. [f] sees the join's live row: it may read it and
    run the child joins of [n]'s children on it, but must copy what it
    keeps. The empty join is Lemma 1's maximality test: µ restricted to
    the parent's subtree is maximal for [n] exactly when no extension
    exists. Each call of [extensions cj] runs one search staged once per
    [cj], so a join allocates nothing of its own.

    - [`Hom]: one full join.
    - [`Pebble k]: the join runs under a {!Resource.Budget.capped} cap
      of {!exact_cap} ticks until its first extension, and past it
      without a cap ({!Resource.Budget.uncap}). When the cap trips
      first, node [n]'s relaxed test ({!run_pebble}) is asked as a
      sound refuter: a Spoiler win proves that no extension exists and
      leaves [n] out; otherwise the child is joined in full, so answers
      are exact at any [k]. The game keeps a child with no witness
      within the cap from costing more than the game's polynomial bound
      whenever the game refutes it; a child the game cannot refute
      costs its full join.

    Budget-transparent: ticks once per call, and every join and game
    tick is charged to [budget]. Counts the join, its extensions and
    any tripped cap on the node. *)

val record_answers : t -> rows:int -> answers:int -> unit
(** Add one evaluation's emitted rows and distinct answers to
    {!stats}. *)

val node_joins :
  t -> Graph.t -> Wdpt.Pattern_tree.t -> Wdpt.Pattern_tree.node -> joins
(** Counters of node [n]'s child joins against [graph]'s entry so far. *)

val stats : t -> stats

val zero_stats : stats

val add_stats : stats -> stats -> stats
(** Field-wise sum (the server totals its plans' caches with it). *)

val pp_joins : joins Fmt.t
val pp_stats : stats Fmt.t
