(** Generalised t-graphs (Section 3): pairs [(S, X)] of a t-graph [S] and a
    set [X ⊆ vars(S)] of distinguished variables. They correspond to
    conjunctive queries whose free variables are [X]. *)

open Rdf

type t = private { s : Tgraph.t; x : Variable.Set.t }

val make : Tgraph.t -> Variable.Set.t -> t
(** Raises [Invalid_argument] unless [X ⊆ vars(S)]. *)

val s : t -> Tgraph.t
val x : t -> Variable.Set.t

val existential_vars : t -> Variable.Set.t
(** [vars(S) \ X]: the non-distinguished variables. *)

val identity_pre : t -> Homomorphism.assignment
(** The pre-assignment [x ↦ ?x] for all [x ∈ X], used so that
    homomorphisms between generalised t-graphs fix [X] pointwise. *)

val hom : ?budget:Resource.Budget.t -> t -> t -> Homomorphism.assignment option
(** [(S, X) → (S', X)]: a homomorphism fixing [X] pointwise. Raises
    [Invalid_argument] if the two [X] sets differ. *)

val maps_to : ?budget:Resource.Budget.t -> t -> t -> bool
(** [maps_to a b] iff [a → b]. *)

val hom_equivalent : ?budget:Resource.Budget.t -> t -> t -> bool
(** Homomorphic equivalence: maps both ways. *)

val hom_to_graph : t -> mu:Homomorphism.assignment -> Graph.t ->
  Homomorphism.assignment option
(** [(S, X) →µ G]: a homomorphism [h] into the RDF graph [G] with
    [h(x) = µ(x)] for [x ∈ X]. Raises [Invalid_argument] unless
    [dom(µ) ⊇ X] (extra bindings in [µ] outside [vars S] are ignored). *)

val maps_to_graph : t -> mu:Homomorphism.assignment -> Graph.t -> bool

val subgraph : t -> t -> bool
(** [(S', X)] is a subgraph of [(S, X)]: [S' ⊆ S], same [X]. *)

val tw : ?budget:Resource.Budget.t -> t -> int
(** The paper's [tw(S, X)]: treewidth of the Gaifman graph on
    [vars(S) \ X], defined as 1 when that graph has no vertices or no
    edges. *)

val tw_upper : t -> int
(** A polynomial upper bound on {!tw}: the min-fill/min-degree
    elimination heuristics of {!Graphtheory.Treewidth.upper_bound}, with
    the same convention of 1 for a Gaifman graph without vertices or
    edges. *)

val tw_at_most : ?budget:Resource.Budget.t -> t -> int -> bool
(** [tw_at_most g k] iff [tw g <= k]. Decided by the degeneracy lower
    bound and the elimination-heuristic upper bound; the exact search
    runs only when they disagree. *)

val equal : t -> t -> bool
val pp : t Fmt.t
