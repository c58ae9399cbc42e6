(** The homomorphism solver over the dictionary-encoded store: the same
    fail-first backtracking join as {!Tgraphs.Homomorphism}, operating on
    integer ids and sorted-array range lookups instead of terms and hash
    probes. Results are identical (cross-checked in the tests); bench A4
    compares throughput.

    Assignments are flat int arrays indexed by dense variable ids. A
    source can be compiled against a {e shared} variable table ([?vars]),
    so every node of a pattern tree numbers its variables in the same
    array and a parent's solution doubles as the child join's [pre] with
    no re-encoding — the whole enumeration round-trips through ids and is
    decoded only at the solution boundary.

    [budget] is ticked once per backtracking node under phase ["hom"];
    the search raises {!Resource.Budget.Exhausted} when it trips. *)

open Rdf

type pterm =
  | Const of int  (** a dictionary id (or {!absent_id}) *)
  | Var of int  (** a dense variable slot into {!variables} *)
(** One position of a compiled triple pattern. *)

type source
(** A t-graph compiled against a graph's dictionary (the graph is
    captured in the source). *)

val compile : ?vars:Variable.t array -> Tgraphs.Tgraph.t -> Encoded_graph.t -> source
(** Variables are numbered densely against [vars] when given (raising
    [Invalid_argument] if a t-graph variable is missing from it), or
    against the t-graph's own variables otherwise. IRIs absent from the
    dictionary compile to a negative sentinel id whose lookups hit empty
    ranges, so such sources simply yield zero homomorphisms. *)

val graph : source -> Encoded_graph.t

val variables : source -> Variable.t array
(** Decode table: variable of each dense id (the shared table when one
    was supplied to {!compile}). *)

val patterns : source -> (pterm * pterm * pterm) array
(** The compiled patterns, in the t-graph's triple order (a fresh copy).
    Pattern indices in a {!fold} [order] refer to positions in this
    array — the optimizer reads it to compile join orders. *)

val own_slots : source -> int list
(** Indices (into {!variables}) of the compiled t-graph's {e own}
    variables. A {!fold} with [pre] depends on [pre] only through these
    slots — the key a caller needs to memoise existence verdicts on. *)

val unassigned : int
(** Sentinel for a free slot in an assignment array:
    {!Encoded_graph.unbound}, so a row's slot probes the store as it
    stands. *)

val absent_id : int
(** Sentinel id for a term absent from the dictionary ([-2]); lookups
    keyed on it match nothing. *)

val encode_pre : source -> Tgraphs.Homomorphism.assignment -> int array
(** Encode a term-level partial assignment into an assignment array over
    {!variables}: unmapped variables become {!unassigned}, terms outside
    the dictionary become {!absent_id}. *)

val decode : source -> int array -> Tgraphs.Homomorphism.assignment
(** Decode every bound ([>= 0]) slot back to terms — the solution
    boundary for shared-table enumeration. *)

val fold :
  ?budget:Resource.Budget.t ->
  ?order:int array ->
  ?pre:int array ->
  source ->
  init:'acc ->
  f:('acc -> int array -> 'acc * [ `Continue | `Stop ]) ->
  'acc
(** Fold over all homomorphisms extending [pre] (an encoded assignment
    of {!variables}'s width, e.g. from {!encode_pre} or a previous
    solution), with early exit. [f] receives the {e live} working array:
    copy it ([Array.copy]) to retain it beyond the callback.

    The join is fail-first: at each depth it takes the remaining pattern
    with the fewest matches under the current prefix. Scores are cached
    and a pattern is re-counted only after one of its own variables was
    bound or unbound, so the choice is exact at a fraction of the range
    counts. Ties go to the earlier position in [order] (a permutation of
    pattern indices, e.g. the optimizer's compiled order), or to the
    textual pattern order when no [order] is given. [order] only affects
    the order the search explores patterns in, never the set of
    homomorphisms folded over (tested). A source with zero patterns folds
    over exactly one homomorphism: [pre] itself. Raises
    [Invalid_argument] if [order] is not a permutation of the source's
    patterns. *)

type search
(** A join over one source prepared once and run many times: its
    working row, score cache, trail and one store cursor per depth.
    A {!run} allocates nothing beyond what its [emit] does. Not
    reentrant: [emit] must not run the same search. *)

val search : ?order:int array -> emit:(int array -> bool) -> source -> search
(** [search ?order ~emit source]: the join {!fold} runs, with [emit]
    called on the live row of every homomorphism; [emit] returns [true]
    to stop the run. [order] and its [Invalid_argument] are as in
    {!fold}. *)

val run : search -> Resource.Budget.t -> int array -> unit
(** [run s budget pre]: one join extending [pre] (an assignment of
    {!variables}'s width, raising [Invalid_argument] otherwise), ticking
    [budget] as {!fold} does. *)

val iter :
  ?budget:Resource.Budget.t ->
  ?order:int array ->
  ?pre:int array -> source -> f:(int array -> unit) -> unit

val exists :
  ?budget:Resource.Budget.t ->
  ?pre:Tgraphs.Homomorphism.assignment -> source -> bool

val count :
  ?budget:Resource.Budget.t ->
  ?pre:Tgraphs.Homomorphism.assignment -> source -> int
(** Number of distinct homomorphisms. *)

val all :
  ?budget:Resource.Budget.t ->
  ?pre:Tgraphs.Homomorphism.assignment ->
  ?limit:int -> source -> Tgraphs.Homomorphism.assignment list
(** All homomorphisms (up to [limit] if given), decoded back to terms
    with domain [vars source] — exact parity with
    {!Tgraphs.Homomorphism.all}. Order unspecified. *)

val count_tgraph :
  ?budget:Resource.Budget.t -> Tgraphs.Tgraph.t -> Encoded_graph.t -> int
(** Convenience: {!compile} + {!count}. *)
