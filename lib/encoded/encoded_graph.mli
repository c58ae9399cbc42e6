(** A dictionary-encoded, sorted-array triple store.

    Terms are interned to dense ints ({!Rdf.Dictionary}) and the triples
    kept in three sorted permutations (SPO, POS, OSP), so any
    partially-bound lookup is answered by binary-searching the permutation
    whose sort order puts the bound positions first. This is the classical
    RDF-store layout (contrast with the hash-indexed {!Rdf.Index}); the
    two backends are cross-checked in the tests and compared in bench A4. *)

type t

type flat_view = {
  fn : int;
  fload : int -> int array -> unit;
  fcompare : int -> int -> int -> int -> int;
}
(** One sorted permutation provided as closures: [fn] triples;
    [fload i b] writes the i-th raw id triple, in the permutation's sort
    order, into [b.(0)] (s), [b.(1)] (p) and [b.(2)] (o); and
    [fcompare i k1 k2 k3] compares the i-th triple's key under that
    order (its {!key}) as ints against (k1, k2, k3), negative, zero or
    positive. How a compiled on-disk store ([Storage]) exposes its
    mmap'd index sections without this module knowing about bytes,
    mappings, or [Bigarray] — the join, pebble and statistics code paths
    are backend-blind.

    Nothing here builds a tuple per read. A search step is one
    [fcompare] call, which reads the mapped ids in place and only as far
    as the keys agree; a range walk or a scan loads each triple it
    visits with one [fload] call into an array of its own. A merged
    overlay view resolves the position of [i] once per call. Both must
    be pure and total on [0, fn), and may raise on an id they find
    damaged (the store's [Store_error Corrupt]). *)

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

val view_of_triples : perm -> (int * int * int) array -> flat_view
(** The view of a heap array of raw triples sorted by [perm]. *)

val compare_view : flat_view -> perm -> int -> int * int * int -> int
(** [compare_view v perm i t]: {!compare_in} of the [i]-th triple of the
    [perm]-sorted view [v] against the raw triple [t], in one
    [fcompare] call. *)

val counting_pass :
  range:int -> int array -> stride:int -> at:int -> int array -> int array ->
  unit
(** [counting_pass ~range keys ~stride ~at src dst]: one stable
    counting-sort pass, writing the elements of [src] into [dst] ordered
    by the key [keys.((stride * j) + at)] of each element [j]; every key
    must lie in [0, range). O(n + range). The store builder sorts its id
    columns with it, and [Row_writer] its answer rows: LSD radix sorts of
    one pass per column or digit. *)

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

(** {2 Probes}

    A probe names each position of a triple pattern by an id, or by
    {!unbound} to leave it free. Any other negative id (a term absent
    from the dictionary, {!Encoded_hom.absent_id}) stays bound and
    matches nothing. A probe binary-searches the permutation whose sort
    order puts its bound positions first, and allocates nothing. *)

val unbound : int
(** [-1]: a free position of a probe. *)

val mem : t -> int -> int -> int -> bool
(** [mem t s p o]: whether the ground triple is in the store. *)

val match_count : t -> int -> int -> int -> int
(** [match_count t s p o]: how many triples agree with every bound
    position; two binary searches. *)

val iter_matching : t -> int -> int -> int -> (int -> int -> int -> unit) -> unit
(** [iter_matching t s p o f] calls [f s' p' o'] on each triple agreeing
    with every bound position, in the order of the permutation searched. *)

type cursor
(** A reusable walk over the triples agreeing with one probe — what a
    join keeps per depth, so that walking a range allocates nothing. *)

val cursor : t -> cursor
(** A cursor over the store's triples, before any {!seek}. *)

val seek : cursor -> int -> int -> int -> unit
(** [seek c s p o] places [c] before the first triple agreeing with the
    probe (s, p, o), forgetting any earlier probe. *)

val next : cursor -> bool
(** Step to the next triple agreeing with the last {!seek}, in the order
    {!iter_matching} visits them; [false] once there is none. *)

val subject : cursor -> int
val predicate : cursor -> int

val object_ : cursor -> int
(** Positions of the triple {!next} last stepped to. *)

val iter_index : t -> perm -> (int -> int -> int -> unit) -> unit
(** [iter_index t perm f] calls [f s p o] on every raw triple of [t] in
    [perm]'s sort order, reading each into one buffer for the whole
    scan — the store writer's, compaction's and decode's sequential
    access; query code uses the matching API above. *)

val nth_spo : t -> int -> int * int * int
(** The i-th raw (s, p, o) triple of the SPO permutation — positional
    access, one tuple per read. *)

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
