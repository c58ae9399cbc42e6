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

    The Lemma-1 maximality condition is checked per candidate answer:
    - [`Hom] (default) uses the exact homomorphism test, memoized per
      child ({!Plan_cache.naive_child_test}) — cheap when children are
      easy to match;
    - [`Pebble k] uses the existential (k+1)-pebble relaxation of
      Theorem 1 on the plan cache's {!Pebble_cache} — polynomial even
      when a child hides an NP-hard pattern, and exact whenever
      [dw ≤ k]. *)

open Rdf

type maximality = [ `Hom | `Pebble of int ]

type optimize = [ `Off | `On ]
(** Join planning mode (ablation A10). Every node join is fail-first
    with cached scores ({!Encoded.Encoded_hom.fold}); the modes differ in
    what breaks score ties and in the maximality test:
    - [`Off] (default): no compiled order — ties go to the textual
      pattern order — and every child runs the [maximality] test;
    - [`On]: the cost-based compiled order of {!Plan_cache.node_decision}
      breaks ties, and under [`Pebble k] each node's Lemma-1 test runs
      naively instead of through the pebble relaxation when the
      optimizer estimates very few candidate extensions (both exact
      under the planner's [dw ≤ k] invariant, so answers never change —
      tested). *)

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
    tests of each candidate batch across workers, each with a private
    pebble-cache view, merging results back in sequential order — the
    answer {e set and its construction order} are identical to
    [domains:1] for every [n] (tested as a qcheck property). [`Hom]
    always evaluates sequentially. Budgets propagate: workers draw from
    a shared fuel pool and a deadline or cancellation on any domain
    stops the others within one lease ({!Resource.Budget.fork}). *)

val count :
  ?budget:Resource.Budget.t -> ?maximality:maximality ->
  ?cache:Plan_cache.t -> ?domains:int -> ?optimize:optimize ->
  Wdpt.Pattern_forest.t -> Graph.t -> int
(** Number of distinct answers. *)
