(** Domination width (Definitions 1 and 2) — the paper's new width measure,
    which characterises the polynomial-time evaluable classes of
    well-designed patterns (Theorem 3).

    For each subtree [T] of the forest, [GtG(T)] must be [k]-dominated:
    its members of [ctw ≤ k] must homomorphically dominate the rest. The
    domination width is the least such [k] working for every subtree.

    Which path runs depends on the forest's shape only:
    - a one-tree forest (a UNION-free pattern) takes Proposition 5,
      [dw = bw]: {!of_forest} and {!at_most} return
      {!Branch_treewidth.of_tree} and {!Branch_treewidth.at_most}, one
      branch gtgraph per node and no subtree enumeration;
    - a forest of two or more trees scans the GtG family of every
      subtree, as below.

    Recognition is hard (a Πᵖ₂ upper bound, NP-hard already for
    UNION-free patterns, Section 5), so the scan pays for cores only
    where cheap bounds cannot decide. It scans [k] upward; a member
    passes level [k] if
    - [tw(member) ≤ k], decided by the degeneracy lower bound and the
      min-fill/min-degree upper bound, with the exact search only when
      they disagree ({!Tgraphs.Gtgraph.tw_at_most}) — its core is a
      subgraph with the same [X], so [ctw ≤ tw];
    - a member already known to have [ctw ≤ k] maps into it;
    - as a last resort, its own [ctw], or that of a member mapping into
      it, is [≤ k].
    The [tw ≤ k] answers (per member and [k]), cores and homomorphism
    tests are memoised per family, so each core is computed at most once
    and only when needed. The result
    equals the direct Definition-2 computation (every member's [ctw] up
    front; kept as the oracle of a qcheck property). *)

open Tgraphs

val dominated_at : ?budget:Resource.Budget.t -> Gtgraph.t list -> int -> bool
(** [dominated_at g k]: is the family [k]-dominated? Always the GtG
    test, whatever the forest's shape. *)

val domination_level : ?budget:Resource.Budget.t -> Gtgraph.t list -> int
(** The least [k ≥ 1] at which the family is [k]-dominated. *)

val of_subtree :
  ?budget:Resource.Budget.t -> Wdpt.Pattern_forest.t -> Wdpt.Subtree.t -> int
(** [domination_level (GtG T)]. *)

val of_forest : ?budget:Resource.Budget.t -> Wdpt.Pattern_forest.t -> int
(** [dw(F)]: maximum over all subtrees of all trees. Always ≥ 1. On a
    one-tree forest this is [bw] (Proposition 5); otherwise the GtG scan,
    which scans each distinct [pat(T)] once ([GtG(T)] depends on it
    alone) and reduces each gtgraph to its core at most once across the
    forest ({!Tgraphs.Cores.Memo}). Runs under the budget phase
    ["domination-width"] either way. *)

val at_most : ?budget:Resource.Budget.t -> Wdpt.Pattern_forest.t -> int -> bool
(** [at_most f k] decides [dw(f) ≤ k] — the recognition problem of
    Section 5 — short-circuiting on the first subtree whose [GtG] is not
    [k]-dominated, which is much cheaper than computing [dw] exactly when
    the answer is negative. On a one-tree forest it decides
    [max ctw ≤ k] over the branch gtgraphs instead, stopping at the first
    node above [k]. *)

val of_pattern : ?budget:Resource.Budget.t -> Sparql.Algebra.t -> int
(** [dw(P) = dw(wdpf(P))].
    Raises {!Wdpt.Translate.Not_well_designed} if not well-designed. *)

val cheap_upper_bound : Wdpt.Pattern_forest.t -> int
(** A polynomial-time conservative bound on [dw(F)] (dw ≤ max member ctw
    ≤ max member tw ≤ this): per tree, the smaller of
    {!Branch_treewidth.upper_bound} (one heuristic bound per branch
    gtgraph) and the heuristic bound of the tree's full Gaifman graph;
    the maximum over trees. The degradation target when {!of_forest}
    exhausts its budget — running the pebble algorithm at this [k] is
    still exact, only more expensive than at the true dw. *)

type profile = {
  subtree_members : int list;  (** node ids of the subtree *)
  tree_index : int;  (** which tree of the forest it lives in *)
  gtg_ctws : int list;  (** [ctw] of each member of [GtG(T)] *)
  level : int;  (** least [k] at which [GtG(T)] is k-dominated *)
}

val profile : ?budget:Resource.Budget.t -> Wdpt.Pattern_forest.t -> profile list
(** Per-subtree diagnostics, used by the width-landscape experiment:
    every member's exact [ctw] (computed here, eagerly) and the level.
    Always the GtG scan, also on a one-tree forest, so the maximum
    [level] is the Definition-2 [dw] against which Proposition 5 is
    checked. *)
