(** Static width estimates: polynomial-time upper bounds on the width
    measures, per pattern-forest node, plus (budget permitting) the exact
    domination width — what [wdsparql analyze] and [eval --explain]
    print. [Engine.plan] measures dw itself; its budget fallback
    ({!Wd_core.Domination_width.cheap_upper_bound}) takes the same
    per-node bounds.

    Soundness chain for the bounds: for each non-root node [n],
    [ctw(S^br_n, X^br_n) = tw(core(S^br_n, X^br_n)) ≤ tw(S^br_n, X^br_n)]
    (the core is a substructure), which the min-fill/min-degree heuristics
    of {!Graphtheory.Treewidth.upper_bound} bound from above. By
    Proposition 5 the per-tree maximum bounds [bw = dw] of each tree, and
    [dw] of a forest is the maximum over its trees. *)

type node_est = {
  node : Wdpt.Pattern_tree.node;
  ctw_upper : int;  (** heuristic bound on [ctw(S^br_n, X^br_n)], ≥ 1 *)
}

type tree_est = {
  tree_index : int;
  node_ests : node_est list;  (** non-root nodes, ascending *)
  bw_upper : int;  (** max over nodes, ≥ 1 — bounds the tree's [bw = dw] *)
}

type t = {
  trees : tree_est list;
  dw_upper : int;  (** static bound on [dw] of the forest, ≥ 1 *)
  dw_exact : int option;
      (** exact domination width, when the exact computation finished
          within the budget *)
}

val estimate :
  ?budget:Resource.Budget.t -> ?try_exact:bool -> Wdpt.Pattern_forest.t -> t
(** The static bounds are polynomial and always computed; the exact
    domination width is attempted under [budget] (default: attempted,
    unlimited) and degrades to [None] on exhaustion. The exact width is
    {!Wd_core.Domination_width.of_forest}: on a one-tree forest that is
    [bw] (Proposition 5), one core at most per node; on a UNION of trees
    it is the GtG scan over every subtree. *)

val hints : t -> Wd_core.Engine.hints
(** For the benchmark harness's trace mode only (see
    {!Wd_core.Engine.hints}). *)

val to_json : t -> Json.t

val pp : t Fmt.t
