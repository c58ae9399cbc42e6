(** Cross-tree memo of {!Join_order.compile} results.

    Two structurally identical node joins — same triple patterns up to a
    renaming of variable slots, same per-slot bound/free split, same
    store — get the same cost-based plan, because {!Join_order.compile}
    reads nothing else. Queries canonicalized by {!Analysis.Canonical}
    routinely produce such twins across distinct pattern trees (the
    per-tree memo in [Plan_cache] cannot see them), so this cache keys
    decisions on a slot-renamed {e signature} of the join instead of the
    tree node: one optimizer run serves every isomorphic node against the
    same store epoch.

    Reused decisions are patched with the asking node's id; [order],
    [est_cards] and [est_candidates] carry over verbatim (they are
    functions of the signature and the store statistics only).

    Not safe for concurrent callers — guard it like the structures next
    to it (the engine's plan cache is per-plan, the server serializes
    compilation per entry). *)

type t

type stats = {
  hits : int;  (** decisions served from the memo *)
  misses : int;  (** decisions compiled by {!Join_order.compile} *)
  entries : int;  (** signatures currently held *)
}

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of held signatures (default 512); past
    it, the oldest entry is dropped (FIFO — signatures are tiny and
    recompilation is cheap, so the simple policy is enough). Raises
    [Invalid_argument] if [capacity < 1]. *)

val signature :
  bound:(int -> bool) ->
  (Encoded.Encoded_hom.pterm
  * Encoded.Encoded_hom.pterm
  * Encoded.Encoded_hom.pterm)
  array ->
  string
(** The join's identity modulo slot names: constants verbatim, variable
    slots renamed by first occurrence, each slot tagged with its bound
    bit. Exposed for tests. *)

val compile :
  ?budget:Resource.Budget.t ->
  t ->
  epoch:int ->
  Encoded.Encoded_graph.t ->
  nvars:int ->
  bound:(int -> bool) ->
  node:int ->
  (Encoded.Encoded_hom.pterm
  * Encoded.Encoded_hom.pterm
  * Encoded.Encoded_hom.pterm)
  array ->
  Join_order.decision
(** {!Join_order.compile} through the memo: a hit returns the stored
    decision with [node] patched; a miss compiles, stores, and counts.
    [epoch] must identify the store behind [graph] (the caller's epoch
    key) — decisions never cross epochs. *)

val stats : t -> stats
