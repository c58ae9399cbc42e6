(** Graph statistics: the cardinality summaries a query planner wants.

    Everything is computed once at construction in a single pass plus one
    pass per predicate, and kept immutable. *)

type predicate_stats = {
  triples : int;  (** number of triples with this predicate *)
  distinct_subjects : int;
  distinct_objects : int;
}

type t

val of_graph : Graph.t -> t

val triples : t -> int
val predicates : t -> (Iri.t * predicate_stats) list
(** Sorted by descending triple count. *)

val predicate : t -> Iri.t -> predicate_stats option

val distinct_subjects : t -> int
val distinct_objects : t -> int
val dom_size : t -> int
(** |dom(G)|: distinct IRIs in any position. *)

val selectivity : t -> Triple.t -> float
(** Estimated fraction of the graph's triples matching the given triple
    pattern, assuming per-predicate uniformity: a bound subject divides by
    the predicate's distinct subject count, a bound object by its distinct
    object count; an unknown predicate estimates 0. Clamped to [0, 1]. *)

val selectivity_of :
  total:int -> subjects:int -> objects:int ->
  predicate:(Iri.t -> predicate_stats option) -> Triple.t -> float
(** {!selectivity} over summaries the caller supplies — [total]
    triples, distinct [subjects] and [objects], and per-predicate
    statistics — for instance read off an encoded store. *)

val estimated_matches : t -> Triple.t -> float
(** [selectivity × total triples] — the planner's cost unit. *)

val pp : t Fmt.t
