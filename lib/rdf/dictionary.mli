(** Dense integer interning of terms.

    Algorithms that need array-indexed access to the term universe of a
    graph (the pebble game, dictionary-encoded joins) build one of these:
    terms get consecutive ids [0 .. size − 1] in first-encounter order. *)

type t

type view = {
  view_size : int;
  view_term : int -> Term.t;
      (** decode; only ever called with ids in [0, view_size) *)
  view_find : Term.t -> int option;
      (** exact reverse lookup over the same id range *)
}
(** A read-only dictionary backend provided as closures — how an mmap'd
    on-disk store exposes its term blob without this module (or any
    other consumer) knowing about the byte layout. Both closures must be
    pure; [view_term] may raise a structured error on a corrupt blob. *)

val create : unit -> t

val of_view : view -> t
(** A dictionary over a read-only base [view]: ids [0, view_size) decode
    through the view (memoized, so each term is materialised at most
    once per process); {!intern} of a term the view does not know
    allocates overflow ids from [view_size] upward, keeping the id space
    dense.

    The view closures need not read a single array: [lib/storage] hands
    in views composed from a base store plus its delta segments (the
    segment dictionary-growth blocks extend the id space past the base).
    The contract is only
    what the signature says — total, pure, and [view_size]-dense.

    View-backed dictionaries memoize on the read path, so {!find},
    {!term_of} and {!intern} on them are serialized behind an internal
    mutex and are safe to call from concurrent threads (the view
    closures themselves must be pure, as required above). Heap
    dictionaries ({!create}, {!of_graph}, …) take no lock: build them
    before fanning out and treat them as read-only while shared. *)

val of_terms : Term.t list -> t
val of_graph : Graph.t -> t
(** Interns every term of the graph (subjects, predicates, objects). *)

val intern : t -> Term.t -> int
(** Id of the term, allocating a fresh id on first encounter. *)

val find : t -> Term.t -> int option
(** Id of the term if already interned. *)

val term_of : t -> int -> Term.t
(** Inverse of {!intern}. Raises [Invalid_argument] on unknown ids. *)

val size : t -> int

val encode_triple : t -> Triple.t -> int * int * int
val decode_triple : t -> int * int * int -> Triple.t
