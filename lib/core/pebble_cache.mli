(** The counters of the pebble side of the Lemma-1 child tests.

    The games themselves, their per-store unary candidate domains and
    the verdict memos all live in {!Plan_cache}'s per-store entry, next to the encoded store
    they are compiled against, and die with it. What is left here is
    the record {!Plan_cache.stats} reports them in, kept as its own
    module because the bench harness and the server read it by this
    name.

    The games are those of Theorem 1's child test
    [(pat(T') ∪ pat(n), vars(T')) →µ_{k+1} G] with the subtree half
    dropped: every caller has already proved the anchor µ(pat T') ⊆ G,
    and what remains is the game on [(pat(n), shared)] with µ|shared,
    [shared] being [n]'s variables on its ancestor path. *)

type stats = {
  hits : int;
  misses : int;
  compiled : int;
  families : int;
  evictions : int;
  unary_hits : int;
  unary_misses : int;
}
(** [hits]/[misses]: relaxed-verdict memo outcomes; [compiled]: node
    games compiled; [families]: partial-homomorphism families the
    games explored; [evictions]: relaxed verdicts computed but not
    remembered because their node's table was full;
    [unary_hits]/[unary_misses]: µ-independent unary candidate domains
    reused across game compiles vs actually scanned. *)

val pp_stats : stats Fmt.t
