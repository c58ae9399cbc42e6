(** The static query analyzer: one pass over a parsed pattern — before any
    evaluation — producing the designedness verdict (well / weakly-well /
    ill), the lint findings of {!Lints}, and the static width estimates of
    {!Width_est}, all with source spans. [wdsparql analyze] is a thin
    wrapper over this module. *)

open Rdf

type width_info =
  | Width of Width_est.t
  | Width_unavailable of string
      (** why the width machinery does not apply (outside the core
          fragment, or not well-designed) *)

type report = {
  source : string;  (** input name: a file path, or ["query"] *)
  pattern : Sparql.Algebra.t;
  spans : Sparql.Spans.t;
  designedness : Designedness.t;
  width : width_info;
      (** measured on the pruned residual, the pattern the planner sees *)
  diagnostics : Diagnostic.t list;
      (** sorted by span, then rule — includes the [prune-*] rewrite
          diagnostics *)
  satisfiability : Satisfiability.verdict;
      (** store-independent verdict for the whole pattern, decided under
          a private fuel slice (inconclusive → [Unknown]) *)
  canonical : Canonical.t;
      (** order-normalized alpha-renamed form; its hash keys plan caches *)
  pruned : Prune.t;  (** the residual pattern and the applied rewrites *)
}

val analyze :
  ?graph:Graph.t ->
  ?budget:Resource.Budget.t ->
  ?source:string ->
  spans:Sparql.Spans.t ->
  Sparql.Algebra.t ->
  report
(** Run every pass. [graph] enables the store-dependent
    [unsatisfiable-triple] rule; [budget] limits the (exponential) exact
    width computation, which degrades to the static bound on exhaustion. *)

val of_source :
  ?graph:Graph.t ->
  ?budget:Resource.Budget.t ->
  ?source:string ->
  string ->
  (report, Wdsparql_error.t) result
(** Parse with spans, then {!analyze}. *)

val has_findings : report -> bool

val node_spans :
  spans:Sparql.Spans.t -> Wdpt.Pattern_tree.t ->
  (Wdpt.Pattern_tree.node * Sparql.Span.t) list
(** Source span of every pattern-forest node: the join of the spans of the
    node's triples (resolved structurally against the parse). *)

val to_json : report -> Json.t
(** Stable machine-readable report (schema 2): analyzer/schema tag,
    source, designedness verdict, satisfiability verdict (plus reason
    when unknown), canonical hash, prune summary, width object (or the
    unavailability reason), sorted diagnostics. *)

val pp : report Fmt.t
(** Human-readable rendering: verdict, width summary, findings. *)
