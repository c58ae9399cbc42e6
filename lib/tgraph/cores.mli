(** Cores of generalised t-graphs (Section 3, Proposition 1).

    [(S', X)] is a core of [(S, X)] if it is a subgraph that is itself a
    core (no homomorphism to a proper subgraph fixing [X]) and is
    homomorphically equivalent to [(S, X)]. The core is unique up to
    renaming of variables; we return the concrete retract reached by
    repeatedly shrinking along endomorphisms. *)

val is_core : ?budget:Resource.Budget.t -> Gtgraph.t -> bool
(** No homomorphism fixing [X] into a proper subgraph. *)

val core : ?budget:Resource.Budget.t -> Gtgraph.t -> Gtgraph.t
(** The core, computed by iterated retraction: while some endomorphism
    fixing [X] misses a triple, replace [S] by its image. Worst-case
    exponential (core identification is NP-hard) — intended for
    query-sized inputs. *)

val ctw : ?budget:Resource.Budget.t -> Gtgraph.t -> int
(** [ctw(S, X) = tw(core(S, X))] — the central width measure the paper
    builds domination width from. *)

(** A ctw memo for one width computation. Two gtgraphs with the same [X]
    and the same triples share an entry, so a gtgraph that recurs across
    the subtrees or trees of one forest pays for its core once. Not safe
    to share between threads. *)
module Memo : sig
  type t

  val create : unit -> t

  val ctw : ?budget:Resource.Budget.t -> t -> Gtgraph.t -> int
  (** [ctw g], remembered. Bounds first: when [tw(g) ≤ 1]
      ({!Gtgraph.tw_at_most}) the answer is 1 and no core is computed. A
      computation cut short by the budget leaves no entry. *)
end
