(** Answers as id rows until the wire: distinct rows, sorted, with the
    IRI of every distinct id decoded once and no term set in between.

    The rows are kept in a chunked arena of 32-bit slots, each id
    replaced as it arrives by the index it was first seen at. Every
    distinct id is then ranked by its IRI, and an unbound slot is keyed
    so that plain lexicographic int order over the slots is
    {!Sparql.Mapping.compare} order; the rows are radix-sorted and
    deduplicated on those keys, in time linear in the slots and the
    distinct IRIs.

    {!write} prints them as the CLI does: the bytes are exactly those of
    [Fmt.pr "%a@." Sparql.Mapping.pp] for each answer, in
    {!Sparql.Mapping.Set.elements} order (tested), with the line breaks
    [Format] takes at its default margin of 78. The server writes its
    SPARQL-JSON body from the same rows through {!binding}. *)

open Rdf

type t

val of_iter :
  Variable.t array -> (int -> Iri.t) -> ((int array -> unit) -> unit) -> t
(** [of_iter vars iri walk]: [walk sink] calls [sink] once per row over
    the variable table [vars], which must be sorted by
    {!Variable.compare}; slot [i] holds an id ([>= 0]) of the IRI bound
    to [vars.(i)], or a negative value when it is unbound. The row is
    copied into the arena, so [walk] may reuse it. [iri] decodes an id;
    it is called once per distinct id, after [walk] returns. Duplicate
    rows are dropped. *)

val of_rows : Variable.t array -> (int -> Iri.t) -> int array list -> t
(** {!of_iter} over a list of rows. *)

val cardinal : t -> int
(** Number of distinct rows. *)

val variables : t -> Variable.t array
(** The variable table the rows are over. *)

val iris : t -> Iri.t array
(** The distinct IRIs of the rows, by rank: in {!Iri.compare} order. *)

val binding : t -> int -> int -> int
(** [binding t i k]: the rank (into {!iris}) of the IRI that row [i]
    binds at slot [k], or [-1] when the slot is unbound. Rows are
    numbered [0 .. cardinal t - 1] in {!Sparql.Mapping.compare} order. *)

val write : Buffer.t -> t -> unit
(** Append every row, one mapping per line group, each ending in a
    newline. *)

val output : out_channel -> t -> unit
(** The bytes of {!write}, handed to the channel in chunks of about
    64 KiB as they are written, so the whole body is never held at once.
    The channel is not flushed. *)
