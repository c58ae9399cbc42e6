(** The paper's polynomial-time evaluation algorithm (Theorem 1).

    Like the natural algorithm, but the NP-hard test "can [µ] be extended
    to child [n] by a homomorphism" is replaced with the existential
    (k+1)-pebble game on [(pat(T^µ_i) ∪ pat(n), vars(T^µ_i))]:

    - {b soundness} holds unconditionally: if the algorithm accepts then
      [µ ∈ ⟦F⟧G] (rejecting children via the relaxation only ever rejects
      a superset of the real extensions);
    - {b completeness} holds whenever [dw(F) ≤ k] (the completeness proof
      of Theorem 1).

    For fixed [k] the algorithm runs in polynomial time in [|F| + |G|].
    Once {!Wdpt.Subtree.matching} has found T^µ, µ is encoded once onto
    the tree's variable table and each child [n] asks its node's
    relaxed test on the {!Plan_cache.t} ({!Plan_cache.run_pebble}): one
    game per (node, k) on the dictionary-encoded store, verdicts
    memoized on µ|shared, pure pebble with no exact search first. The
    cache keys its entries on the graph's {!Rdf.Graph.epoch}, so any
    plan cache may be passed; when none is given, a fresh one is
    created for the call. *)

open Rdf

val check :
  ?budget:Resource.Budget.t -> ?cache:Plan_cache.t -> k:int ->
  Wdpt.Pattern_forest.t -> Graph.t -> Sparql.Mapping.t -> bool
(** [check ~k F G µ] decides [µ ∈ ⟦F⟧G], exactly when [dw(F) ≤ k].
    Raises [Invalid_argument] if [k < 1]. *)

val check_pattern :
  ?budget:Resource.Budget.t -> ?cache:Plan_cache.t -> k:int ->
  Sparql.Algebra.t -> Graph.t -> Sparql.Mapping.t -> bool

val check_auto :
  ?budget:Resource.Budget.t -> ?cache:Plan_cache.t ->
  Wdpt.Pattern_forest.t -> Graph.t -> Sparql.Mapping.t -> bool
(** Compute [dw(F)] first (exponential in the query only), then run
    {!check} with that bound — always exact. *)

val solutions :
  ?budget:Resource.Budget.t -> ?cache:Plan_cache.t -> k:int ->
  Wdpt.Pattern_forest.t -> Graph.t -> Sparql.Mapping.Set.t
(** Answer enumeration built on the polynomial membership test: candidate
    mappings are generated per subtree from homomorphisms of its pattern
    and filtered with the pebble test. Exact when [dw(F) ≤ k]. One cache
    is shared by every membership test of the call. *)
