(** The evaluation algorithm with the {e exact} tree-decomposition-guided
    extension test ({!Tgraphs.Td_hom}) in place of the pebble relaxation.

    Semantically this always equals {!Wdpt.Semantics} (the inner test is
    exact, not a relaxation — tested). Its cost profile is the interesting
    part: polynomial whenever every tested child instance has small
    {e ctw}, which covers bounded branch treewidth (hence all UNION-free
    tractable classes, Cor. 1) — but {b not} bounded domination width:
    on the paper's [F_k] family the tested instance contains the
    undominated clique and this algorithm blows up with the naive one
    while the pebble algorithm stays polynomial (bench F7). That contrast
    is exactly why Theorem 1 needs k-domination and a relaxation rather
    than a cleverer exact algorithm. *)

open Rdf

val check : Wdpt.Pattern_forest.t -> Graph.t -> Sparql.Mapping.t -> bool
(** [µ ∈ ⟦F⟧G], exactly. *)

val check_pattern : Sparql.Algebra.t -> Graph.t -> Sparql.Mapping.t -> bool
