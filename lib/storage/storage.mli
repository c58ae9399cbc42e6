(** The compiled on-disk store: a versioned binary format holding a
    dictionary-encoded graph — term blob, the three sorted index
    permutations, and the planner statistics — so a cold process maps the
    file and answers queries without parsing or re-encoding anything.

    {2 File layout (format version 2)}

    Two file kinds share one container (diagram in
    [docs/PERFORMANCE.md]): an 8-byte magic, the format version, a
    byte-order mark, N count words from byte 24, a table of K (offset,
    length) pairs, zero padding to 256 bytes, then the K sections, each
    16-byte aligned. All integers are 64-bit little-endian words.

    {v
 kind            magic     N  count words                      K  sections
 base store      WDSTORE1  7  triples terms stamp predicates   7  dict-offsets term-sort
                              distinct-s distinct-o distinct-p    dict-blob spo pos osp pstats
 delta segment   WDSDELT1  6  parent stamp adds dels           4  new-dict-offsets
                              new-terms parent-terms              new-dict-blob adds dels
    v}

    - [dict-offsets] delimits each term's bytes in [dict-blob], where a
      term is a one-byte tag ('I' IRI, 'V' variable) and its text;
      [term-sort] holds the ids sorted by those bytes, so the reverse
      lookup (term → id) is a binary search over the mapping;
    - [spo] / [pos] / [osp] are the raw (s, p, o) id triples of each
      permutation in its sort order — exactly what
      {!Encoded.Encoded_graph} binary-searches; [pstats] holds
      per-predicate rows (pid, triples, distinct subjects, distinct
      objects), sorted by pid.
    - {b Delta segments} [<base>.d1, <base>.d2, ...] are append-only
      add/delete logs with a dictionary-growth block, each pinned to its
      parent by the chain stamp it extends. {!load} merges the chain
      over the base through positional overlay views ({!Overlay}) —
      O(Δ log n) setup, no rewrite of the base; {!append} writes one in
      O(Δ).

    Content stamps are FNV-1a hashes of the payload folded to 62 bits;
    the identity of a chained store folds the segment stamps, so every
    distinct (base, segments) prefix has a distinct stable identity.

    {2 Failure discipline}

    Every way a file can be unusable raises {!Wdsparql_error.Store_error}
    with the precise fault: wrong magic ({!Wdsparql_error.Bad_magic},
    also for the shard manifests ([WDSMANI1]) earlier versions wrote); a
    file shorter than the magic whose bytes prefix a known magic, or a
    section extending past end-of-file ({!Wdsparql_error.Truncated});
    newer format version; corrupt structure, including a section
    starting inside the header, a negative or miscounted length,
    overlapping sections, and any id outside the dictionary
    ({!Wdsparql_error.Corrupt}); checksum mismatch; a segment whose
    parent stamp does not extend the chain
    ({!Wdsparql_error.Delta_chain_broken}); or a gap in the segment
    numbering. A corrupt store never
    surfaces as a raw [Failure], [Invalid_argument], or a crash inside a
    mapping. Validation is layered: headers, section tables, chain
    linkage and segment ids eagerly at load; dictionary bytes lazily at
    first decode; base index ids as a probe reads them; and
    full payloads only under [~verify:true]. *)

type section_info = {
  sec_name : string;
  sec_bytes : int;  (** section length, before alignment padding *)
}

type segment_info = {
  seg_file : string;
  seg_adds : int;
  seg_dels : int;
  seg_new_terms : int;
  seg_stamp : int;  (** this segment's own payload stamp *)
  seg_chain_stamp : int;  (** the chain stamp after applying it *)
  seg_bytes : int;
}

type chain =
  | Single  (** a plain base store, no segments *)
  | Chained of segment_info list  (** base + delta segments, in order *)

type info = {
  version : int;
  triples : int;  (** live triples after applying the whole chain *)
  base_triples : int;  (** triples in the base file alone *)
  terms : int;  (** dictionary size including segment growth *)
  predicates : int;  (** distinct predicates of the base ([pstats] rows) *)
  stamp : int;  (** the base file's own content stamp *)
  chain_stamp : int;  (** stamp folded over the whole chain; = [stamp]
                          for [Single] *)
  identity : int;  (** the negative epoch loaded handles carry;
                       [-1 - chain_stamp] *)
  file_bytes : int;  (** the base file alone *)
  total_bytes : int;  (** including segments *)
  sections : section_info list;
  chain : chain;
}

val format_version : int

val looks_like_store : string -> bool
(** Whether the file starts with a store magic, or the retired shard
    manifest magic — the cheap sniff the CLI uses to accept a compiled
    store anywhere a Turtle file is (so an old manifest fails as a store,
    not as Turtle). False on any read error. *)

val seg_path : string -> int -> string
(** [seg_path base k] is the path of the k-th delta segment
    ([base ^ ".d" ^ k]; segments are numbered from 1). *)

val save : Encoded.Encoded_graph.t -> string -> unit
(** [save enc path] compiles the store to [path] (atomically: written to
    a temporary sibling and renamed over, fsync'd). The bytes are those
    of [enc] as it is — its ids, its dictionary (dead terms included) —
    so two stores of the same triples write the same file only if both
    are canonical: built by {!Encoded.Encoded_graph.canonical} (which
    [of_graph] and {!canonical} call), not a loaded chained store.
    Statistics for every distinct predicate are computed now, in one
    pass over POS, so loads never pay for them. Sections are hashed and
    written one after another. Does {e not} touch delta segments of an
    earlier store at [path] — callers replacing a chained store should
    {!compact} instead. Raises {!Wdsparql_error.Io_error} on filesystem
    failure. *)

val canonical : Encoded.Encoded_graph.t -> Encoded.Encoded_graph.t
(** The live triples of a store — e.g. a loaded chain —
    rebuilt by {!Encoded.Encoded_graph.canonical} straight from their
    ids, with no term-level decode: dead terms drop out and ids become
    those a fresh compile of the same triples assigns. What {!compact}
    writes, and what [wdsparql compile] of a store writes. *)

val load : ?verify:bool -> string -> Encoded.Encoded_graph.t
(** [load path] maps the store and wraps its sections into an encoded
    graph backed by the mapping — no parsing, no allocation proportional
    to the base data; the OS pages parts in as queries touch them.

    If delta segments exist, they are read eagerly (O(Δ)), validated
    against the chain, and merged over the base through overlay views;
    planner statistics of predicates the delta touches are recomputed
    exactly from the merged views, untouched predicates keep their
    precomputed rows.

    The result's {!Encoded.Encoded_graph.epoch} is the stable negative
    identity [-1 - chain_stamp], so loading the same file (plus the same
    segments) twice — even across processes — yields the same identity
    and plan caches keyed on it survive. [~verify:true] additionally
    hashes every payload against its header stamp (reads every page).

    Raises {!Wdsparql_error.Store_error} on an unusable file and
    {!Wdsparql_error.Io_error} if it cannot be opened. *)

val load_graph : ?verify:bool -> string -> Rdf.Graph.t
(** {!load}, then return a {!Rdf.Graph.deferred} handle carrying the
    store's identity, {!Encoded.Encoded_graph.register}ed to the store:
    the handle drops into every API that takes a graph, the encoded
    evaluation path resolves it straight to the mapped store, and only
    term-level consumers (the naive evaluator, Turtle printing) force its
    lazy decode. The registration lasts as long as the handle is
    reachable, so dropping the handle of a replaced version releases its
    store. *)

val info : ?verify:bool -> string -> info
(** Header, section and chain summary without touching the data sections
    (except under [~verify:true], which checksums every payload).
    Validates chain linkage like {!load}, but does not map or decode
    anything. Same errors as {!load}. *)

(** {2 Incremental updates} *)

type append_result = {
  app_file : string;  (** the segment file written *)
  app_adds : int;  (** net additions recorded (after normalization) *)
  app_dels : int;  (** net deletions recorded *)
  app_new_terms : int;  (** dictionary growth *)
  app_chain_stamp : int;  (** the chain stamp after this segment *)
}

val append :
  ?adds:Rdf.Triple.t list -> ?dels:Rdf.Triple.t list -> string ->
  append_result option
(** [append ~adds ~dels path] writes the next delta segment for the
    chain at [path] — O(Δ) in the delta size, never rewriting the base.
    The delta is normalized against the live overlay first: adds already
    present and deletions of absent triples drop out (and a triple in
    both lists nets to "present"). Returns [None] — writing nothing —
    if the normalized delta is empty. New terms are interned in
    canonical order, so the segment bytes (and the resulting chain
    stamp) depend only on the store content and the delta. Same errors
    as {!load} on an unusable store. *)

type compact_result = {
  folded : int;  (** segments folded into the base *)
  compact_stamp : int;  (** the new base's content stamp *)
}

val compact : string -> compact_result
(** Fold the whole chain at [path] into a fresh monolithic base store
    (atomically) and delete the segments. The overlay's live id triples
    go straight to the canonical builder ({!canonical}) — no decode to
    terms, no term-level graph — so the compacted store's stamp equals
    what a fresh compile of the same triple set produces, and the
    round-trip is exact. Crash safety: the new base is renamed into
    place before segments are unlinked; a crash in the window leaves
    stale segments whose parent stamp no longer matches, which the next
    {!load} rejects with {!Wdsparql_error.Delta_chain_broken} instead of
    silently replaying them. *)
