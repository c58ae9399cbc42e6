(** Triple pattern graphs (t-graphs, Section 2.1 of the paper): finite sets
    of triple patterns. An RDF graph is exactly a t-graph without
    variables.

    A t-graph is represented by the shared matching index {!Rdf.Index.t};
    variables appearing in a t-graph used as a homomorphism {e target} are
    treated as frozen constants, which is precisely the paper's freezing
    construction [Ψ] (Section 4.2). *)

open Rdf

type t = Index.t

val of_triples : Triple.t list -> t
val of_set : Triple.Set.t -> t

val to_set : t -> Triple.Set.t
(** The triples as a set (what the index was built from). *)

val empty : t
val union : t -> t -> t

val union_all : t list -> t
(** The union of all the t-graphs, built as one index (a one-element list
    gives its t-graph back). *)

val add_triples : t -> Triple.t list -> t
(** [add_triples s l] is [s ∪ l], built as one index. *)

val triples : t -> Triple.t list
val cardinal : t -> int
val mem : t -> Triple.t -> bool
val subset : t -> t -> bool
val proper_subset : t -> t -> bool
val remove : t -> Triple.t -> t

val vars : t -> Variable.Set.t
(** [vars(S)]: variables appearing in the t-graph, gathered once when the
    t-graph is built ({!Rdf.Index.vars}). *)

val iris : t -> Iri.Set.t

val apply : (Variable.t -> Term.t option) -> t -> t
(** Apply a partial substitution to every triple. *)

val rename_avoiding :
  keep:Variable.Set.t -> avoid:Variable.Set.t -> t -> t * Term.t Variable.Map.t
(** [rename_avoiding ~keep ~avoid s] renames every variable of [s] outside
    [keep] to a fresh variable not in [avoid ∪ keep] (and not otherwise
    used), returning the renamed t-graph and the substitution used. This is
    the renaming [ρ_Δ] of Section 3.1. *)

val renaming :
  keep:Variable.Set.t -> avoid:Variable.Set.t -> t -> Term.t Variable.Map.t
(** The substitution {!rename_avoiding} applies, without building the
    renamed t-graph. *)

val freeze_prefix : string
(** IRI prefix used by {!freeze}. *)

val freeze : t -> Graph.t
(** The paper's freezing [Ψ]: replace every variable [?x] by the IRI
    [urn:frozen:x], yielding a ground RDF graph. *)

val freeze_term : Term.t -> Term.t
val thaw_term : Term.t -> Term.t
(** [thaw_term] maps [urn:frozen:x] back to [?x] (the paper's [Θ]) and
    leaves other terms unchanged. *)

val equal : t -> t -> bool
val pp : t Fmt.t
