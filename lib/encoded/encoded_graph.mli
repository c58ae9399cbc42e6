(** A dictionary-encoded, sorted-array triple store.

    Terms are interned to dense ints ({!Rdf.Dictionary}) and the triples
    kept in three sorted permutations (SPO, POS, OSP), so any
    partially-bound lookup is answered by binary-searching the permutation
    whose sort order puts the bound positions first. This is the classical
    RDF-store layout (contrast with the hash-indexed {!Rdf.Index}); the
    two backends are cross-checked in the tests and compared in bench A4. *)

type t

type flat_view = { fn : int; fget : int -> int * int * int }
(** One sorted permutation provided as closures: [fn] triples, [fget i]
    the i-th raw (s, p, o) id triple in the permutation's sort order.
    How a compiled on-disk store ([Storage]) exposes its mmap'd index
    sections without this module knowing about bytes, mappings, or
    [Bigarray] — the join, pebble and statistics code paths are
    backend-blind. [fget] must be pure and total on [0, fn). *)

type perm =
  | Spo
  | Pos
  | Osp
(** The sort order of one index permutation: by (s, p, o), (p, o, s) or
    (o, s, p) — the triple's {!key} under it, compared lexicographically
    as ints. *)

val key : perm -> int * int * int -> int * int * int
(** [key perm (s, p, o)]: the raw triple rotated into [perm]'s order. *)

val compare_in : perm -> int * int * int -> int * int * int -> int
(** [compare_in perm a b] compares the keys of the raw triples [a] and
    [b] under [perm], on ints and without building either key. *)

type predicate_stats = {
  triples : int;  (** number of triples with this predicate *)
  distinct_subjects : int;
  distinct_objects : int;
}

type stats_seed = {
  seed_subjects : int option;
  seed_objects : int option;
  seed_predicates : int option;
  seed_predicate : int -> predicate_stats option;
}
(** Save-time precomputed planner statistics of a compiled store;
    [seed_predicate] may answer [None] (falls back to a range scan),
    and the global distinct counts may be [None] when a delta overlay
    has invalidated the base store's figures (falls back to a one-shot
    counting scan over the merged views). *)

val canonical :
  identity:int -> Rdf.Dictionary.t -> (int * int * int) array -> t
(** [canonical ~identity dict ids] is the heap store of the triples
    [ids] (ids of [dict], in any order, duplicates allowed) with
    canonical ids: a fresh dictionary interning, in {!Rdf.Triple.compare}
    order of the distinct triples, each triple's subject, predicate and
    object. These are the ids {!Rdf.Dictionary.of_graph} assigns over
    {!Rdf.Graph.triples}, so the store — and every file written from it
    — depends only on the triple set, never on [dict]'s id order or on
    terms no triple uses. Sorting is by counting sort, O(n + terms) per
    column, after one sort of the terms. Raises [Invalid_argument] on an
    id outside [dict]. *)

val of_triples : identity:int -> Rdf.Triple.t list -> t
(** {!canonical} over the triples interned into a fresh dictionary. The
    triples are not checked for groundness. *)

val of_graph : Rdf.Graph.t -> t
(** {!of_triples} of the graph's triples, with its {!Rdf.Graph.epoch} as
    identity. *)

val of_views :
  identity:int ->
  dict:Rdf.Dictionary.t ->
  spo:flat_view -> pos:flat_view -> osp:flat_view ->
  ?stats:stats_seed -> unit -> t
(** A store over externally provided sorted index views (the mmap
    reader's constructor). [identity] is the store's stable identity —
    negative content-stamp-derived for disk stores, disjoint from the
    positive per-process {!Rdf.Graph.epoch} counter — and is what
    {!epoch} returns. The three views must enumerate the same triple
    multiset sorted by (s,p,o), (p,o,s) and (o,s,p) keys respectively;
    raises [Invalid_argument] if their lengths disagree. *)

val union :
  identity:int ->
  dict:Rdf.Dictionary.t ->
  members:t Lazy.t array ->
  owner:(int -> int) ->
  total:int ->
  ?stats:stats_seed -> unit -> t
(** A sharded store: the union of [members], which must partition the
    triple set {e by predicate} — every triple of a given predicate id
    [p] lives in member [owner p] (an index into [members], clamped to
    member 0 if out of range). [dict] is the shared dictionary (every
    member of a shard set carries the full term table, so ids are
    global). [total] is the live triple count across all members.

    Members are forced lazily: a predicate-bound lookup touches only the
    owning member (so only that member's pages fault in), a
    predicate-free pattern fans out over all members, and positional
    access ([nth_*]) materializes a one-shot k-way merge. Safe to share
    across threads — member forcing and the merge are serialized on an
    internal lock. *)

val members_touched : t -> int option
(** [Some n] for a {!union} store: how many member stores have been
    forced so far (the lazy-mapping ablation counter). [None] for flat
    stores. *)

val register : Rdf.Graph.t -> t -> unit
(** [register graph store] makes [store] what {!of_graph_cached}
    resolves [graph] to, outside the MRU churn: a {!Rdf.Graph.deferred}
    handle then evaluates against the store directly, never forcing its
    term-level decode. The entry lives exactly as long as [graph] is
    reachable (an ephemeron keyed on the handle itself, not on its
    epoch), so dropping the handle of a reloaded store releases that
    store. Re-registering the same handle replaces its entry. *)

val registered_live : unit -> int
(** How many {!register}ed entries are still live (their handle not yet
    collected). Mainly for tests: after dropping handles and a
    [Gc.full_major], the count falls back. *)

val of_graph_cached : Rdf.Graph.t -> t
(** Like {!of_graph}, but resolved through the {!register}ed persistent
    stores first and then memoized on the graph's {!Rdf.Graph.epoch} in
    a small bounded MRU cache, so evaluators that encode the same graph
    for every (mapping, child) test pay the encoding cost once. *)

val epoch : t -> int
(** The store's identity: the {!Rdf.Graph.epoch} of the graph a heap
    store was encoded from, or the stable (negative) content-stamp
    identity of a loaded disk store ({!of_views}). *)

val clear_cache : unit -> unit
(** Drop every entry of the {!of_graph_cached} memo and the
    {!register}ed-store table (mainly for tests and benchmarks). Safe
    while evaluations are in flight on other threads: a
    dropped mmap'd store stays alive — and its file mapped — for as
    long as any live evaluation still holds it; a deferred graph handle
    resolved after the drop falls back to its (slow but exact)
    term-level decode. *)

val dictionary : t -> Rdf.Dictionary.t
val cardinal : t -> int

val mem : t -> int * int * int -> bool

val matching :
  t -> ?s:int -> ?p:int -> ?o:int -> unit -> (int * int * int) list
(** Triples (as id tuples) agreeing with every bound position. *)

val match_count : t -> ?s:int -> ?p:int -> ?o:int -> unit -> int
(** Cardinality of {!matching}; constant-ish time (two binary searches)
    for prefix-bound lookups. *)

val iter_matching :
  t -> ?s:int -> ?p:int -> ?o:int -> f:(int * int * int -> unit) -> unit -> unit

val nth_spo : t -> int -> int * int * int
(** The i-th raw (s, p, o) triple of the SPO permutation — positional
    access for the store writer (and tests); query code uses the
    matching API above. *)

val nth_pos : t -> int -> int * int * int
val nth_osp : t -> int -> int * int * int

(** {2 Planner statistics}

    Cardinality summaries for the cost-based optimizer, derived from the
    sorted index arrays and memoized on the store (stores are immutable).
    The first call per predicate costs a range scan; every later call is
    a hash lookup, so plan-time estimation is O(1) — and O(1) from the
    first call on compiled stores, which carry a {!stats_seed}.
    {!Rdf.Stats} remains the unencoded fallback for term-level
    consumers. *)

val predicate_stats : t -> int -> predicate_stats
(** Statistics of one predicate (by dictionary id). An id that never
    occurs as a predicate — including the negative absent-term sentinels —
    yields all-zero stats. *)

val distinct_subjects : t -> int
(** Distinct subject ids across the whole store (runs of the SPO array). *)

val distinct_objects : t -> int
(** Distinct object ids across the whole store (runs of the OSP array). *)

val distinct_predicates : t -> int
(** Distinct predicate ids across the whole store (runs of the POS
    array). *)
