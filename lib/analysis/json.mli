(** A minimal JSON tree, printer and parser — just enough for the
    analyzer's [--json] output and its round-trip tests, so the project
    needs no external JSON dependency.

    The printer is deterministic (object fields print in the order given)
    and the grammar is standard JSON minus a few liberties: numbers are
    OCaml [int]/[float]; strings are byte sequences where bytes < 0x20 are
    escaped and everything else passes through verbatim. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. *)

val write_string : Buffer.t -> string -> unit
(** Append [s] as a JSON string literal, quotes included: the bytes
    {!to_string} prints for [String s]. *)

val pp : t Fmt.t
(** Same rendering as {!to_string}. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string} (tested); accepts arbitrary whitespace between
    tokens. Numbers without [.], [e] or [E] parse as [Int]. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other constructors. *)

val to_list : t -> t list option
val to_str : t -> string option
val to_int : t -> int option
