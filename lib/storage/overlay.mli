(** The segment-merge kernel behind format-v2 delta overlays.

    Pure positional algebra — no file or mapping concern (that stays in
    {!Storage}): given a base sorted permutation as an
    {!Encoded.Encoded_graph.flat_view} plus the net added and deleted
    triples of a segment chain, it presents the merged sorted sequence
    as another flat view without materializing it. Merge setup is
    O(Δ log n) binary searches; each probe of the merged view costs
    O(log Δ) on top of the base probe. Both entry points tick the
    resource budget once per delta entry (budget-lint kernel). *)

val view_lower_bound :
  Encoded.Encoded_graph.flat_view ->
  Encoded.Encoded_graph.perm ->
  int * int * int ->
  int
(** First index of the [perm]-sorted view whose triple is >= the given
    raw triple in [perm] order. *)

val view_mem :
  Encoded.Encoded_graph.flat_view ->
  Encoded.Encoded_graph.perm ->
  int * int * int ->
  bool
(** Exact membership of a raw triple in a [perm]-sorted view. *)

val compose :
  ?budget:Resource.Budget.t ->
  base_mem:(int * int * int -> bool) ->
  segments:((int * int * int) array * (int * int * int) array) list ->
  unit ->
  (int * int * int) array * (int * int * int) array
(** Fold an ordered chain of per-segment (adds, dels) arrays over a
    base-membership predicate into one net [(adds, dels)] pair: the
    returned adds are absent from the base, the dels present in it, and
    the two are disjoint. Later segments override earlier ones (delete
    then re-add cancels out). Order within the returned arrays is
    unspecified. *)

val merge :
  ?budget:Resource.Budget.t ->
  base:Encoded.Encoded_graph.flat_view ->
  perm:Encoded.Encoded_graph.perm ->
  adds:(int * int * int) array ->
  dels:(int * int * int) array ->
  unit ->
  Encoded.Encoded_graph.flat_view
(** The merged view of [base] (sorted in [perm] order) with [adds] inserted and
    [dels] suppressed. Requires what {!compose} guarantees: every add
    absent from the base, every del present, adds and dels disjoint. The
    input arrays are copied; the result is a pure view safe to share
    across domains. *)
