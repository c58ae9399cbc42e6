(** The CLI's answer writer: distinct id rows, sorted and printed with
    no term set in between.

    The bytes are exactly those of [Fmt.pr "%a@." Sparql.Mapping.pp]
    for each answer, in {!Sparql.Mapping.Set.elements} order (tested):
    rows sort in {!Sparql.Mapping.compare} order, and the line breaks
    are the ones [Format] takes at its default margin of 78. *)

open Rdf

type t

val of_rows : Variable.t array -> (int -> Iri.t) -> int array list -> t
(** [of_rows vars iri rows]: [rows] are over the variable table [vars],
    which must be sorted by {!Variable.compare}; slot [i] holds an id
    ([>= 0]) of the IRI bound to [vars.(i)], or a negative value when
    it is unbound. [iri] decodes an id; it is called once per distinct
    id, and its printed bytes are kept for the whole write. Duplicate
    rows are dropped. *)

val cardinal : t -> int
(** Number of distinct rows. *)

val write : Buffer.t -> t -> unit
(** Append every row, one mapping per line group, each ending in a
    newline. *)

val output : out_channel -> t -> unit
(** The bytes of {!write}, handed to the channel in chunks of about
    64 KiB as they are written, so the whole body is never held at once.
    The channel is not flushed. *)
