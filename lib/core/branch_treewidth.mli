(** Branch treewidth (Definition 3): for a wdPT [T] and non-root node [n],
    let [S^br_n = pat(n) ∪ ⋃_{n' ∈ B_n} pat(n')] and
    [X^br_n = vars(⋃_{n' ∈ B_n} pat(n'))], where [B_n] is the root-to-parent
    branch of [n]. Then [bw(T)] is the least [k ≥ 1] with
    [ctw(S^br_n, X^br_n) ≤ k] for all non-root [n].

    By Proposition 5, [bw] coincides with domination width on UNION-free
    well-designed patterns, so by Corollary 1 it characterises their
    tractability. *)

open Tgraphs

val branch_gtgraph : Wdpt.Pattern_tree.t -> Wdpt.Pattern_tree.node -> Gtgraph.t
(** [(S^br_n, X^br_n)] for a non-root node [n]. Raises [Invalid_argument]
    on the root. *)

val of_tree : ?budget:Resource.Budget.t -> Wdpt.Pattern_tree.t -> int
(** [bw(T)]. Always ≥ 1. Lazy in the cores: a node whose [tw(S, X)] is
    already at most the running maximum cannot raise it ([ctw ≤ tw]), so
    its core is never computed; [tw ≤ k] is decided by bounds first
    ({!Tgraphs.Gtgraph.tw_at_most}). The cores that are computed go
    through one {!Tgraphs.Cores.Memo}. Every node ticks [budget]. This is
    what {!Domination_width.of_forest} returns on a one-tree forest. *)

val at_most : ?budget:Resource.Budget.t -> Wdpt.Pattern_tree.t -> int -> bool
(** [at_most t k] decides [bw(t) ≤ k], stopping at the first node whose
    [ctw] exceeds [k]; a core is computed only where the [tw] bounds
    cannot decide. *)

val upper_bound : Wdpt.Pattern_tree.t -> int
(** A polynomial upper bound on [bw(T)]: the maximum over non-root nodes
    of {!Tgraphs.Gtgraph.tw_upper} of the branch gtgraph ([ctw ≤ tw]).
    1 on a root-only tree. *)

val of_pattern : ?budget:Resource.Budget.t -> Sparql.Algebra.t -> int
(** [bw(P)] for a UNION-free well-designed pattern.
    Raises {!Wdpt.Translate.Not_well_designed} otherwise. *)
