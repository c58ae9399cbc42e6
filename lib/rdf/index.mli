(** An immutable, indexed store of triples over terms.

    This is the shared matching substrate: an RDF graph is an index whose
    triples are all ground, and a t-graph (set of triple patterns, see
    {!Tgraph}) is an index whose triples may contain variables — variables
    stored in an index are treated as opaque constants by matching (they
    are "frozen": matching never unifies them).

    Seven access patterns are indexed (s / p / o / sp / so / po / spo) so
    that [matching] answers any partially-bound lookup by a hash probe. *)

type t

val of_triples : Triple.t list -> t
val of_set : Triple.Set.t -> t
val empty : t

val epoch : t -> int
(** A globally unique stamp assigned when the index is constructed.
    Because indexes are immutable, any "mutation" (e.g. {!union},
    {!add_triples}) builds a new index with a fresh epoch — so two values
    share an epoch iff they are the same store, which is what the
    cross-evaluation caches key their invalidation on. *)

val triples : t -> Triple.t list
(** All triples, without duplicates, in unspecified order. *)

val to_set : t -> Triple.Set.t
val cardinal : t -> int
val mem : t -> Triple.t -> bool

val union : t -> t -> t
val add_triples : t -> Triple.t list -> t

val matching : t -> ?s:Term.t -> ?p:Term.t -> ?o:Term.t -> unit -> Triple.t list
(** [matching idx ?s ?p ?o ()] is the list of triples agreeing with every
    supplied position. Omitted positions are wildcards. *)

val matching_scan : t -> ?s:Term.t -> ?p:Term.t -> ?o:Term.t -> unit -> Triple.t list
(** As {!matching} but by linear scan, ignoring the hash indexes — the
    baseline for the index ablation (bench A3). Same results as
    {!matching} up to order. *)

val match_count : t -> ?s:Term.t -> ?p:Term.t -> ?o:Term.t -> unit -> int
(** Cardinality of [matching], computed without building the list when all
    three positions are bound. *)

val terms : t -> Term.Set.t
(** All terms occurring in any position. *)

val vars : t -> Variable.Set.t
(** All variables occurring in any triple: gathered while the index is
    built, so reading it costs nothing. *)

val iris : t -> Iri.Set.t
(** All IRIs occurring in any triple. In the paper's notation, for an RDF
    graph [G] this is [dom(G)]. *)

val subjects : t -> Term.t list
val predicates : t -> Term.t list
val objects : t -> Term.t list

val equal : t -> t -> bool
(** Extensional equality of the underlying triple sets. *)

val pp : t Fmt.t
