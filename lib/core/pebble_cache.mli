(** The pebble side of one store's Lemma-1 child tests.

    {!Plan_cache} owns every child-join artefact per (tree, node): the
    compiled source, the cap, the games and the verdict memos. This
    module holds what the games of one store share:

    - the µ-independent unary candidate domains, scanned once per store
      and reused by every game compiled against it;
    - compiling a node's game once per [k], under one lock, so pool
      workers may compile the first time a cap trips;
    - running a game while counting the partial-homomorphism families
      it explores;
    - the {!stats} record.

    The games are those of Theorem 1's child test
    [(pat(T') ∪ pat(n), vars(T')) →µ_{k+1} G] with the subtree half
    dropped: every caller has already proved the anchor µ(pat T') ⊆ G
    (the join built the candidate, or {!Wdpt.Subtree.matching} found
    T^µ), and what remains is the game on [(pat(n), shared)] with
    µ|shared. In a well-designed tree [shared] is the set of [n]'s
    variables on its ancestor path, so one game per (node, k) serves
    every subtree [n] is a child of. Results are identical to
    {!Pebble.Pebble_game.wins} on the union game (cross-checked by
    qcheck in the tests, where that term-level game is the oracle). *)

type t

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

val create : Encoded.Encoded_graph.t -> t
(** The pebble side of one encoded store. *)

val game :
  t ->
  (int, Encoded.Encoded_pebble.t) Hashtbl.t ->
  k:int ->
  Tgraphs.Gtgraph.t ->
  Encoded.Encoded_pebble.t
(** [game t games ~k g]: the existential (k+1)-pebble game of [g] from
    its node's table [games] (keyed on [k]), compiled against the store
    on first use. Lookup and compile run under [t]'s lock, so every
    domain may call it on the same table. *)

val run :
  ?budget:Resource.Budget.t -> Encoded.Encoded_pebble.t -> int array ->
  bool * int
(** [run game mu]: the game's verdict for the positional ids [mu] of its
    parameters ({!Encoded.Encoded_pebble.run}), and the number of
    families it explored. *)

val stats : t -> stats
(** Games compiled and unary-domain counters. The verdict counters
    ([hits], [misses], [families], [evictions]) are kept per node by
    {!Plan_cache}, which fills them in; here they read 0. *)

val pp_stats : stats Fmt.t
