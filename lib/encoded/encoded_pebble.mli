(** Existential (k+1)-pebble game over the dictionary-encoded store.

    This is the hot kernel behind the paper's Theorem-1 PTIME evaluation
    path: it decides the k-consistency relaxation [(S,X) →µ_k G] exactly
    as {!Pebble.Pebble_game.wins} does (the two are cross-checked by
    qcheck in the test suite), but over {!Encoded_graph.t} — dense int
    ids for terms and variables, sorted-array range lookups for the
    unary candidate domains, and flat int-array partial maps hashed with
    a dedicated FNV-style family table instead of polymorphic hashing on
    term maps.

    The split into {!compile} and {!run} is what the plan cache
    ({!Wd_core.Plan_cache}) builds on: a generalised t-graph is
    compiled against a graph once — including the µ-independent unary
    candidate domains — and then replayed for many frozen mappings µ. *)

type t
(** A generalised t-graph compiled against a fixed encoded graph. *)

val unknown_id : int
(** Sentinel id for an IRI absent from the graph's dictionary. It is
    negative, so every range lookup involving it is empty — matching the
    term-level kernel, where such a triple matches nothing. *)

type unary_cache
(** Memo for the µ-independent unary candidate domains, shared across
    the {!compile}s of one (tree, store-epoch): two game families whose
    unary triples encode to the same constant pattern reuse one range
    scan. Keys contain dictionary ids, so a cache must never outlive
    its store epoch. Not thread-safe — serialise compiles against it. *)

val create_unary_cache : unit -> unary_cache

val unary_cache_stats : unary_cache -> int * int
(** [(hits, misses)] — misses count the range scans actually run. *)

val compile :
  ?unary:unary_cache -> k:int -> Tgraphs.Gtgraph.t -> Encoded_graph.t -> t
(** [compile ~k g graph] compiles [g = (S, X)] for the existential
    k-pebble game on [graph]. [unary] memoises the µ-independent unary
    candidate scans across compiles against the same store. Raises
    [Invalid_argument] if [k < 1]. *)

val domain_bound : ?unary:unary_cache -> Tgraphs.Gtgraph.t -> Encoded_graph.t -> int
(** The largest candidate domain {!run} enumerates a free variable of
    [g] over before µ narrows it: the variable's µ-independent unary
    candidates, or the whole dictionary when it has none (0 when [g]
    has no free variable). A run of the k-pebble game enumerates partial
    maps of at most k free variables over these domains, so
    [domain_bound^k] is the game's own polynomial bound up to a factor
    in the size of [g]. *)

val params : t -> Rdf.Variable.t array
(** The distinguished variables X, sorted; [run]'s [mu] array gives the
    image of each, positionally. *)

val free_count : t -> int
(** Number of existential (non-distinguished) variables. *)

val encode_mu : t -> Tgraphs.Homomorphism.assignment -> int array
(** Encode a term-level assignment into the positional id array expected
    by {!run}. IRIs unknown to the graph map to {!unknown_id}. Raises
    [Invalid_argument] if the assignment does not cover X or maps a
    distinguished variable to a non-IRI. *)

val run : ?budget:Resource.Budget.t -> t -> mu:int array -> bool
(** [run t ~mu] decides whether the Duplicator wins, i.e. whether the
    k-consistency fixpoint keeps the empty map alive once X is frozen to
    [mu]. Ticks [budget] under phase ["pebble"] exactly like the
    term-level kernel. Raises [Invalid_argument] on arity mismatch. *)

val wins :
  ?budget:Resource.Budget.t ->
  k:int ->
  Tgraphs.Gtgraph.t ->
  mu:Tgraphs.Homomorphism.assignment ->
  Encoded_graph.t ->
  bool
(** One-shot convenience: [compile] then [run]. Drop-in equivalent of
    {!Pebble.Pebble_game.wins} over the encoded store. *)

val stats_families_explored : unit -> int
(** Families enumerated by {!run} since the last {!reset_stats}. *)

val reset_stats : unit -> unit
