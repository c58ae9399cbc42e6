(** Answer enumeration for wdPTs: the engine's one evaluation path.

    Each tree is evaluated top down, as Pérez et al. evaluate OPT on a
    well-designed tree: every match of the root is extended by each of
    a child's extensions, and a child with no extension is left out;
    its empty join is Lemma 1's maximality test. In a well-designed tree
    children share only their ancestors' variables, so the answers below
    a node match are the product of its children's alternatives, and
    the walk builds each answer exactly once. Each child join runs once
    per parent row ({!Plan_cache.extensions}); the answers are only
    assembled when they are emitted. The walk is sequential: one
    evaluation runs on its caller's thread.

    Everything runs on dictionary ids: node patterns are compiled once
    per (tree, graph epoch) into a {!Plan_cache.t}, rows are flat int
    arrays over the tree's variable table, and a parent's row is the
    child join's prefix. Answers reach a row sink ({!iter_rows}) as id
    rows over the forest's variable table; {!solutions} decodes them
    into a {!Sparql.Mapping.Set.t}, and the CLI and the server write
    them as they are ({!Row_writer}).

    The maximality side of a child join:
    - [`Hom] (default): the join alone;
    - [`Pebble k]: the join's search for a first extension runs under a
      tick cap equal to the existential (k+1)-pebble game's own
      polynomial bound [|adom|^(k+1)]; when the cap trips, the child
      node's game (Theorem 1: one game per (node, k) on the plan cache,
      {!Plan_cache.run_pebble}) is asked as a sound refuter, and only a
      child the game cannot refute is joined in full. Answers are exact
      at every [k].
    The paper's algorithm as stated, pebble game only, is
    {!Pebble_eval}. *)

open Rdf

type maximality = Plan_cache.maximality

type optimize = [ `Off | `On ]
(** Join planning mode (ablation A10). Every node join is fail-first
    with cached scores ({!Encoded.Encoded_hom.fold}); the modes differ
    only in what breaks score ties:
    - [`Off] (default): no compiled order — ties go to the textual
      pattern order;
    - [`On]: the cost-based compiled order of {!Plan_cache.node_decision}
      breaks ties, in the root join and in every child join.
    Answers never change (tested). *)

val variables : Wdpt.Pattern_forest.t -> Variable.t array
(** The forest's variable table: its variables in {!Variable.compare}
    order. Row slot [i] holds the binding of variable [i]. *)

val iter_rows :
  ?budget:Resource.Budget.t -> ?maximality:maximality ->
  ?cache:Plan_cache.t -> ?optimize:optimize ->
  Wdpt.Pattern_forest.t -> Graph.t -> (int array -> unit) -> unit
(** [iter_rows forest graph f] calls [f] once per distinct answer, with
    a live row over {!variables}[ forest]: the dictionary id of each
    bound variable's IRI in [cache]'s encoding of [graph]
    ({!Plan_cache.encoded}), {!Encoded.Encoded_hom.unassigned} for an
    unbound one. Copy the row to keep it. Rows of a UNION forest are
    deduplicated across trees. {!Resource.Budget.solution} is charged
    once per distinct answer, before [f] sees it; the emitted rows and
    distinct answers are added to [cache]'s stats
    ({!Plan_cache.candidates_per_answer}).

    One {!Plan_cache.t} is shared across the whole forest — pass
    [cache] to supply your own (e.g. a plan's cache, to reuse compiled
    sources and pebble games across calls, or to read its stats
    afterwards). *)

val solutions :
  ?budget:Resource.Budget.t -> ?maximality:maximality ->
  ?cache:Plan_cache.t -> ?optimize:optimize ->
  Wdpt.Pattern_forest.t -> Graph.t -> Sparql.Mapping.Set.t
(** {!iter_rows}, decoded. Equals {!Wdpt.Semantics.solutions} under
    either maximality (tested). *)

val count :
  ?budget:Resource.Budget.t -> ?maximality:maximality ->
  ?cache:Plan_cache.t -> ?optimize:optimize ->
  Wdpt.Pattern_forest.t -> Graph.t -> int
(** Number of distinct answers: {!iter_rows} with a counter, decoding
    nothing. *)
