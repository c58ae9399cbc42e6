(** Answer enumeration for wdPTs: the engine's one evaluation path.

    The baseline enumerator ({!Wdpt.Semantics.solutions}) recomputes the
    homomorphisms of every subtree pattern from scratch — with [c]
    optional children below a node it re-joins the shared prefix up to
    [2^c] times. This one walks the subtree lattice once, extending each
    partial homomorphism child by child, so common prefixes are joined
    once. Each subtree is visited exactly once (children are added in
    increasing node-id order, which is compatible with the parent order
    because node ids are topological).

    Everything runs on dictionary ids: node patterns are compiled once
    per (tree, graph epoch) into a {!Plan_cache.t}, partial
    homomorphisms are flat int arrays, and both maximality tests read
    those arrays directly. Only maximal candidates are decoded to terms.

    The Lemma-1 maximality condition is checked per candidate answer
    and child ({!Plan_cache.run}):
    - [`Hom] (default) uses the exact homomorphism test, memoized per
      child;
    - [`Pebble k] runs the same exact test first, under a tick cap equal
      to the existential (k+1)-pebble game's own polynomial bound
      [|adom|^(k+1)], and asks the child node's game (Theorem 1: one
      game per (node, k) on the plan cache, {!Plan_cache.run_pebble})
      only for the tests whose exact search trips the cap. Per candidate
      the cost stays within a constant factor of the game alone —
      polynomial even when a child hides an NP-hard pattern — and the
      answers are exact whenever [dw ≤ k].
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
      breaks ties, in the node joins and in the exact child tests.
    Answers never change (tested). *)

val solutions :
  ?budget:Resource.Budget.t -> ?maximality:maximality ->
  ?cache:Plan_cache.t -> ?domains:int -> ?optimize:optimize ->
  Wdpt.Pattern_forest.t -> Graph.t -> Sparql.Mapping.Set.t
(** Equals {!Wdpt.Semantics.solutions} under [`Hom], and under
    [`Pebble k] whenever [dw(F) ≤ k] (tested). One {!Plan_cache.t} is
    shared across the whole forest — pass [cache] to supply your own
    (e.g. a plan's cache, to reuse compiled sources, pebble games and
    verdicts across calls, or to read its stats afterwards).

    [domains] (default 1) sets the total parallelism of the per-batch
    maximality tests under [`Pebble k]: with [domains > 1] a borrowed
    domain pool ({!Parallel.Pool.borrow}) fans the staged id-level child
    tests of each candidate batch across workers — the same exact-first
    tests, each worker with a private {!Plan_cache.worker} (verdict
    memos and counters) — merging results back in
    sequential order: the answer {e set and its construction order} are
    identical to [domains:1] for every [n] (tested as a qcheck
    property). [`Hom] always evaluates sequentially. Budgets propagate:
    workers draw from a shared fuel pool and a deadline or cancellation
    on any domain stops the others within one lease
    ({!Resource.Budget.fork}). *)

val count :
  ?budget:Resource.Budget.t -> ?maximality:maximality ->
  ?cache:Plan_cache.t -> ?domains:int -> ?optimize:optimize ->
  Wdpt.Pattern_forest.t -> Graph.t -> int
(** Number of distinct answers. *)
