(** Query plans, explained: what the evaluator will do for a pattern over
    a concrete graph, with statistics-based cardinality estimates.

    For each tree of [wdpf(P)] the report lists the root-to-leaf structure
    with, per node, its triple patterns in the order the join will
    evaluate them. With the optimizer on (the default) that is the
    cost-based compiled order of {!Plan_cache.node_decision}, each step
    annotated with the model's estimated cardinality next to the exact
    match count of its constant positions; with it off, patterns appear
    most selective first per {!Rdf.Stats.estimated_matches} — the
    fail-first rescoring's initial view. Each non-root node also shows
    its Lemma-1 maximality test: the child join alone, or the join
    capped until its first extension with the pebble game as the
    refuter past the cap ({!Plan_cache.exact_cap}), and, once the plan
    has been evaluated, the joins it ran and the extensions they
    produced. *)

type triple_plan = {
  triple : Rdf.Triple.t;
  estimated : float;
      (** the cost model's view: {!Rdf.Stats.estimated_matches} when the
          optimizer is off; with a [decision], the per-step estimate
          lives in [decision.est_cards] (aligned with the list order) *)
  actual : int;
      (** exact matches of the pattern's constant positions against the
          store — what the estimate approximates *)
}

type node_plan = {
  node : Wdpt.Pattern_tree.node;
  depth : int;
  new_vars : Rdf.Variable.t list;  (** variables introduced by this node *)
  triples : triple_plan list;  (** in planned evaluation order *)
  decision : Optimizer.Join_order.decision option;
      (** the cost-based plan ([None] when the optimizer is off):
          compiled join order, per-step estimates and expected candidate
          count *)
  maximality : maximality option;  (** [None] at the root *)
}

and maximality = {
  exact_cap : int option;
      (** the exact test's tick cap under a pebble plan; [None] for a
          naive plan (exact only) *)
  joins : Plan_cache.joins;
      (** the node's child joins against this graph so far — zero until
          the plan is evaluated *)
}

type tree_plan = node_plan list
(** Pre-order. *)

type t = {
  classification : Classify.t;
  plan : Engine.plan;
  trees : tree_plan list;
  graph_triples : int;
}

(** [explain ?budget ?optimize p g]: under a [budget], width analysis
    degrades gracefully (see {!Engine.plan} and {!Classify.classify})
    instead of raising. [optimize] is forwarded to {!Engine.plan}
    (default on); it decides whether the per-node cost-based decisions
    are computed and shown. *)
val explain :
  ?budget:Resource.Budget.t -> ?optimize:bool ->
  Sparql.Algebra.t -> Rdf.Graph.t -> t

val trees :
  ?budget:Resource.Budget.t -> Engine.plan -> Rdf.Graph.t -> tree_plan list
(** The per-tree part of the report for an existing plan — after an
    evaluation, with its per-node child-join counters ([eval
    --explain]). *)

val pp_trees : tree_plan list Fmt.t
val pp : t Fmt.t
