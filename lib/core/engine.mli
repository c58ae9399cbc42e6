(** One-stop evaluation facade: translate once, measure the domination
    width once, and dispatch every subsequent operation to the right
    algorithm. This is what the CLI and the examples use.

    Enumeration ({!solutions}) walks each tree top down on id rows
    ({!Enumerate}); under a [Pebble k] plan a child join's search for a
    first extension is capped at the pebble game's polynomial bound,
    and the game refutes the children whose search trips the cap
    ({!Plan_cache.extensions}). Membership ({!check}) is the paper's
    Theorem-1 algorithm as stated, pebble game only
    ({!Pebble_eval.check}). Both run on the plan's {!Plan_cache}: one
    game per (node, k), with its relaxed verdicts memoized. Every
    operation runs sequentially on its caller's thread, and one plan
    serves one operation at a time. *)

open Rdf

type algorithm =
  | Naive  (** exact homomorphism tests (exponential in the query) *)
  | Pebble of int
      (** Theorem-1 algorithm with [k]+1 pebbles; enumeration joins each
          child exactly and asks the game only past the cap *)

type width_source =
  | Exact  (** the plan's width is the measured domination width *)
  | From_hint of { exact : bool }
      (** the width came from a static-analysis hint ({!hints}): the
          analyzer's exact measurement when [exact], its conservative
          static upper bound otherwise. Either way the exponential
          in-plan width computation was skipped. *)
  | Fallback_upper_bound of { phase : string; spent : int }
      (** exact domination width exhausted its budget (in [phase], after
          [spent] steps); the plan carries the polynomial-time treewidth
          upper bound of {!Domination_width.cheap_upper_bound} instead.
          Evaluation stays exact — the pebble game is sound and complete at
          any [k >= dw] — it may just be slower than at the true width. *)

type hints = {
  dw_exact : int option;
      (** exact domination width, measured by the static analyzer; when
          present, {!plan} uses it verbatim and skips its own
          (exponential) computation *)
  dw_upper : int option;
      (** conservative static upper bound on the domination width (the
          analyzer's per-branch treewidth estimate); used as the
          degradation target when the in-plan exact computation runs out
          of budget *)
}
(** Plan hints produced by static analysis ([Analysis.Width_est.hints]).
    Soundness contract: [dw_exact] must be the true domination width of
    the pattern and [dw_upper] an upper bound on it — the pebble
    algorithm is exact at any [k >= dw]. *)

val no_hints : hints

type plan = {
  pattern : Sparql.Algebra.t;
  forest : Wdpt.Pattern_forest.t;
  domination_width : int;
  width_source : width_source;
  algorithm : algorithm;
  optimize : bool;
      (** whether evaluation uses the cost-based planner: compiled
          per-node join orders from store statistics as the fail-first
          join's tie-break ({!Enumerate.optimize} [`On] vs [`Off]). On
          by default; answers are identical either way (tested). *)
  cache : Plan_cache.t;
      (** compiled hom sources, cost-based node decisions, and pebble
          games, reused across every evaluation of this plan and
          invalidated when the graph's {!Rdf.Graph.epoch} changes *)
}

val plan :
  ?budget:Resource.Budget.t -> ?hints:hints -> ?force:algorithm ->
  ?optimize:bool -> ?plan_capacity:int ->
  Sparql.Algebra.t -> plan
(** Build a plan. By default the pebble algorithm at the query's measured
    domination width is chosen (always exact); [force] overrides. A
    [hints.dw_exact] skips the width computation entirely; otherwise, if
    [budget] runs out during the (exponential) exact domination-width
    computation, the plan gracefully degrades to [hints.dw_upper] (when
    given) or a conservative treewidth upper bound, and records the
    downgrade in [width_source] so that {!pp_plan} and [Explain] surface
    it. [plan_capacity] bounds how many stores the plan caches compiled
    artefacts for at once ({!Plan_cache.create}, default 4). Raises
    {!Wdpt.Translate.Not_well_designed} on non-well-designed input. *)

val check :
  ?budget:Resource.Budget.t -> plan -> Graph.t -> Sparql.Mapping.t -> bool
(** [µ ∈ ⟦P⟧G] with the planned algorithm. *)

val solutions :
  ?budget:Resource.Budget.t -> plan -> Graph.t -> Sparql.Mapping.Set.t
(** All answers from the top-down walk ({!Enumerate.solutions}) on the
    plan's cache: the child joins alone under [Naive], and under
    [Pebble k] capped until their first extension, with the pebble game
    as the refuter past the cap. *)

val solutions_stats :
  ?budget:Resource.Budget.t -> plan -> Graph.t ->
  Sparql.Mapping.Set.t * Plan_cache.stats option
(** Like {!solutions}, also returning the plan-cache counters accumulated
    over the plan's lifetime — child joins run, extensions, capped
    searches and pebble answers, rows and distinct answers, pebble
    hits/misses/compiled/evictions, hom sources compiled, epoch
    invalidations (always [Some]) — what [--explain] prints. Because the
    cache lives on the plan, repeated calls on the same graph reuse
    compiled artefacts and the counters keep growing. *)

val count : ?budget:Resource.Budget.t -> plan -> Graph.t -> int
(** Number of distinct answers ({!Enumerate.count}): nothing is decoded
    and no answer set is built. *)

val answer_rows : ?budget:Resource.Budget.t -> plan -> Graph.t -> Row_writer.t
(** The answers as id rows, ready for the CLI's writer and the server's
    JSON body: the same answers as {!solutions}, written into the
    {!Row_writer} arena straight from the walk's sink, with no term set
    built. Raises [Wdsparql_error.Error (Internal _)] if an answer binds
    a variable term, which only a damaged store can hold. *)

val pp_width_source : width_source Fmt.t
val pp_plan : plan Fmt.t
