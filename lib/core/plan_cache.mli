(** Plan-level cache: compiled evaluation artefacts reused across
    repeated {!Engine.solutions} calls on the same plan.

    A plan's expensive-to-build, graph-dependent state is (1) the
    dictionary-encoded copy of the graph, (2) the compiled hom-join
    sources of every tree node (one per node, compiled against a
    tree-wide shared variable table so enumeration assignments are flat
    int arrays), and (3) the {!Pebble_cache} of compiled child games and
    memoized verdicts. This module holds all three in a small
    most-recently-used store keyed on the graph's {!Rdf.Graph.epoch}
    (epochs are unique per construction): evaluating the same plan
    against a recently-seen store reuses everything, so round-robin
    evaluation over a few stores stops rebuilding on every switch;
    only past the capacity does the coldest entry get dropped.

    All artefacts are compiled on demand, so a cache costs nothing until
    the first evaluation touches it. *)

open Rdf

type t

type stats = {
  pebble : Pebble_cache.stats;
      (** accumulated over every entry this cache has held, including
          ones dropped by eviction *)
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

val create : ?verdict_capacity:int -> ?plan_capacity:int -> unit -> t
(** [verdict_capacity] is forwarded to the {!Pebble_cache.create} of
    every entry. [plan_capacity] bounds how many stores are cached at
    once (default 4; raises [Invalid_argument] if [< 1]). *)

val encoded : t -> Graph.t -> Encoded.Encoded_graph.t
(** The encoded copy of [graph] for its entry (building the entry, and
    possibly evicting the coldest one, if [graph]'s epoch is absent). *)

val pebble : t -> Graph.t -> Pebble_cache.t
(** The pebble-game cache of [graph]'s entry. *)

val variables : t -> Graph.t -> Wdpt.Pattern_tree.t -> Variable.t array
(** The tree's shared variable table: the decode table of every source
    returned by {!node_source} for this tree. *)

val node_source :
  t -> Graph.t -> Wdpt.Pattern_tree.t -> Wdpt.Pattern_tree.node ->
  Encoded.Encoded_hom.source
(** The compiled hom-join source of [pat tree n] against [graph],
    compiled on first use and reused while [graph]'s entry stays
    cached. *)

val node_decision :
  ?budget:Resource.Budget.t ->
  t -> Graph.t -> Wdpt.Pattern_tree.t -> Wdpt.Pattern_tree.node ->
  Optimizer.Join_order.decision
(** The cost-based plan of node [n] against [graph]'s statistics: join
    order, per-step cardinality estimates, and the pebble-vs-naive
    maximality verdict, compiled on first use ({!Optimizer.Join_order})
    with the node's ancestors as the bound-variable seed, and cached for
    as long as [graph]'s epoch entry lives — the server's
    cross-connection plan cache serves these without re-deriving
    anything. *)

val naive_child_test :
  ?budget:Resource.Budget.t ->
  ?order:int array ->
  t -> Graph.t -> Wdpt.Pattern_tree.t -> Wdpt.Pattern_tree.node ->
  int array -> bool
(** A memoized exact maximality test for child [n]: does any
    homomorphism of [pat tree n] extend the given encoded assignment?
    Verdicts are cached per node, keyed on the assignment's values at
    the child's {!Encoded.Encoded_hom.own_slots} (the only slots the
    answer depends on), for as long as [graph]'s epoch entry lives — the
    counterpart of the pebble cache's verdict memo. {!Enumerate} runs it
    for every child under [`Hom], and under [`Pebble k] for the children
    the optimizer estimates cheaper to join directly than to stage a
    pebble game for. [order] is the child join's tie-break order
    ({!Encoded.Encoded_hom.fold}). Not safe for concurrent callers (the
    enumerator only uses it from its sequential path). *)

val stats : t -> stats
val pp_stats : stats Fmt.t
