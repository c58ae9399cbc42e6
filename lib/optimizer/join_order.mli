(** Per-node join-order compilation from real store statistics.

    For each wdPT node, the optimizer compiles a static evaluation order
    of the node's triple patterns: seeded by the most selective pattern
    (smallest {!Cost_model.estimate}), then extended greedily under
    bound-variable propagation — after a pattern is placed, its variables
    count as bound for every later estimate. The compiled order is the
    tie-break [order] of {!Encoded.Encoded_hom.fold}'s fail-first join.
    The plan says nothing about the Lemma-1 maximality test: that is
    decided per parent row at run time, by the child join capped at the
    pebble game's polynomial bound ([Wd_core.Plan_cache.extensions]),
    not from a static estimate. *)

type decision = {
  node : int;  (** the wdPT node this plan is for *)
  order : int array;
      (** a permutation of the node's pattern indices (positions in
          {!Encoded.Encoded_hom.patterns} of the node's source) *)
  est_cards : float array;
      (** estimated matches of each step, aligned with [order]: the cost
          model's view of the join at compile time, recorded so
          [--explain] can put estimates next to actuals *)
  est_candidates : float;
      (** running product of [est_cards] — the expected number of full
          extensions of one parent binding *)
}

val compile :
  ?budget:Resource.Budget.t ->
  Encoded.Encoded_graph.t ->
  nvars:int ->
  bound:(int -> bool) ->
  node:int ->
  (Encoded.Encoded_hom.pterm
  * Encoded.Encoded_hom.pterm
  * Encoded.Encoded_hom.pterm)
  array ->
  decision
(** [compile graph ~nvars ~bound ~node patterns] plans one node. [bound]
    selects the variable slots (out of [nvars], the shared table width)
    already bound when the node's join starts — the variables of the
    node's ancestors. O(k²) estimates, each O(1); ticks [budget] once per
    greedy step under phase ["optimize"]. The result's [order] is always
    a permutation of [0 .. Array.length patterns - 1] (property-tested). *)

val pp : decision Fmt.t
