(** Homomorphisms between t-graphs (Section 2.1).

    A homomorphism from a t-graph [S] to [S'] is a function [h] with domain
    [vars(S)] into the terms of [S'] such that [h(t) ∈ S'] for every triple
    pattern [t ∈ S] (IRIs are fixed pointwise). Deciding existence is
    NP-complete; this solver is join-style backtracking: it repeatedly
    processes the yet-unmatched triple pattern with the fewest matching
    target triples under the current partial assignment.

    Variables of the {e target} are never unified — they behave as frozen
    constants, which matches the paper's use of homomorphisms between
    generalised t-graphs.

    One knob exists purely for the ablation benchmarks (it never changes
    results, only cost): [use_index:false] makes candidate lookups
    linearly scan the target instead of using its hash indexes.

    [budget] is ticked once per backtracking node; the search raises
    {!Resource.Budget.Exhausted} when it trips. *)

open Rdf

type assignment = Term.t Variable.Map.t
(** A partial function from variables to terms. *)

val pp_assignment : assignment Fmt.t

val find :
  ?budget:Resource.Budget.t ->
  ?use_index:bool -> ?pre:assignment ->
  source:Tgraph.t -> target:Rdf.Index.t -> unit -> assignment option
(** [find ?pre ~source ~target ()] searches for a homomorphism from
    [source] to [target] extending [pre]. The returned assignment has
    domain [vars source] (it includes [pre]'s bindings restricted to
    [vars source]). [None] if none exists, or if [pre] itself violates a
    fully-bound triple. *)

val exists :
  ?budget:Resource.Budget.t ->
  ?use_index:bool -> ?pre:assignment ->
  source:Tgraph.t -> target:Rdf.Index.t -> unit -> bool

val count :
  ?budget:Resource.Budget.t ->
  ?use_index:bool -> ?pre:assignment ->
  source:Tgraph.t -> target:Rdf.Index.t -> unit -> int
(** Number of distinct homomorphisms. *)

val all :
  ?budget:Resource.Budget.t ->
  ?use_index:bool -> ?pre:assignment -> ?limit:int ->
  source:Tgraph.t -> target:Rdf.Index.t -> unit -> assignment list
(** All homomorphisms (up to [limit] if given). Order unspecified. *)

val fold :
  ?budget:Resource.Budget.t ->
  ?use_index:bool -> ?pre:assignment ->
  source:Tgraph.t -> target:Rdf.Index.t ->
  init:'acc -> f:('acc -> assignment -> 'acc * [ `Continue | `Stop ]) ->
  'acc
(** Fold over all homomorphisms with early exit. *)

val apply : assignment -> Term.t -> Term.t
(** Apply an assignment to a term (unbound variables are left in place). *)
