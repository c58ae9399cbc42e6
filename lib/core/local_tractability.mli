(** Local tractability (Letelier et al., recalled after Theorem 1): a class
    is locally tractable when [ctw(pat(n), vars(n) ∩ vars(n'))] is bounded
    over all non-root nodes [n] with parent [n']. This was the most general
    tractability condition known before the paper; bounded domination width
    strictly extends it (Example 5). *)

val width_of_tree : ?budget:Resource.Budget.t -> Wdpt.Pattern_tree.t -> int
(** The least [k ≥ 1] bounding the local ctw of every non-root node. A
    node whose [tw] is within the running maximum needs no core; the
    cores that are computed go through one {!Tgraphs.Cores.Memo}. *)

val width_of_forest : ?budget:Resource.Budget.t -> Wdpt.Pattern_forest.t -> int
(** The maximum over the trees, with one {!Tgraphs.Cores.Memo} for the
    whole forest. *)

val width_of_pattern : ?budget:Resource.Budget.t -> Sparql.Algebra.t -> int
(** Raises {!Wdpt.Translate.Not_well_designed} if not well-designed. *)
