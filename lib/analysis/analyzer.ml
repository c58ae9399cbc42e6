open Rdf
module A = Sparql.Algebra
module Spans = Sparql.Spans

type width_info =
  | Width of Width_est.t
  | Width_unavailable of string

type report = {
  source : string;
  pattern : A.t;
  spans : Spans.t;
  designedness : Designedness.t;
  width : width_info;
  diagnostics : Diagnostic.t list;
  satisfiability : Satisfiability.verdict;
  canonical : Canonical.t;
  pruned : Prune.t;
}

let span spans p = Spans.find_or_dummy spans p

let unsafe_variable_diag ~spans (u : Designedness.unsafe_variable) =
  let v = u.variable in
  let related =
    [
      {
        Diagnostic.where = span spans u.right;
        note = Fmt.str "%a is introduced in this optional arm" Variable.pp v;
      };
      {
        Diagnostic.where = span spans u.outside;
        note = Fmt.str "%a re-occurs here, outside that OPTIONAL" Variable.pp v;
      };
    ]
    @
    match u.outside_opt with
    | Some opt' ->
        [
          {
            Diagnostic.where = span spans opt';
            note = "the re-occurrence lies in the arm of this second OPTIONAL";
          };
        ]
    | None -> []
  in
  if u.wwd_safe then
    Diagnostic.make ~rule:"wwd-optional-reuse" ~severity:Diagnostic.Warning
      ~span:(span spans u.opt) ~related
      (Fmt.str
         "variable %a from this OPTIONAL arm re-occurs only in later \
          optional arms: the pattern is weakly well-designed, not \
          well-designed"
         Variable.pp v)
  else
    Diagnostic.make ~rule:"wd-unsafe-variable" ~severity:Diagnostic.Error
      ~span:(span spans u.opt) ~related
      (Fmt.str
         "variable %a is introduced in this OPTIONAL arm but re-occurs \
          outside it: the pattern is not well-designed"
         Variable.pp v)

let problem_diag ~spans = function
  | Designedness.Unsafe_variable u -> Some (unsafe_variable_diag ~spans u)
  | Designedness.Nested_union _ ->
      (* the [union-normal-form] lint reports the same occurrence *)
      None
  | Designedness.Unsafe_filter (occ, condition) ->
      let body_vars =
        match occ with A.Filter (body, _) -> A.vars body | q -> A.vars q
      in
      let missing =
        Variable.Set.diff (Sparql.Condition.vars condition) body_vars
      in
      Some
        (Diagnostic.make ~rule:"wd-unsafe-filter" ~severity:Diagnostic.Error
           ~span:(span spans occ)
           (Fmt.str
              "FILTER condition mentions %a, not bound by its pattern: the \
               filter is unsafe and the pattern is not well-designed"
              Fmt.(list ~sep:comma Variable.pp)
              (Variable.Set.elements missing)))
  | Designedness.Nested_select occ ->
      Some
        (Diagnostic.make ~rule:"wd-nested-select" ~severity:Diagnostic.Error
           ~span:(span spans occ)
           "SELECT below other operators: projection is only supported at \
            the top level of a well-designed query")

let width_of ?budget ~designedness pattern =
  match (designedness : Designedness.t).verdict with
  | Ill_designed ->
      Width_unavailable
        "the pattern is not well-designed: its width measures are undefined"
  | Weakly_well_designed ->
      Width_unavailable
        "the pattern is only weakly well-designed: the width machinery \
         covers the well-designed fragment"
  | Well_designed ->
      if not (A.is_core pattern) then
        Width_unavailable
          "the pattern uses FILTER/SELECT: outside the core fragment, the \
           width measures do not apply (Section 5)"
      else
        let forest = Wdpt.Pattern_forest.of_algebra pattern in
        Width (Width_est.estimate ?budget forest)

let analyze ?graph ?budget ?(source = "query") ~spans pattern =
  let designedness = Designedness.analyze pattern in
  let stats = Option.map Stats.of_graph graph
  and dom = Option.map Graph.dom graph in
  let lint_diags = Lints.check ?stats ?dom ~spans pattern in
  let wd_diags = List.filter_map (problem_diag ~spans) designedness.problems in
  let satisfiability =
    Satisfiability.decide_quietly ~fuel:Lints.satisfiability_fuel pattern
  in
  let canonical = Canonical.of_pattern pattern in
  let pruned = Prune.run ~spans pattern in
  let diagnostics =
    List.stable_sort Diagnostic.compare
      (wd_diags @ lint_diags @ pruned.Prune.rewrites)
  in
  (* Width bounds are measured on the residual pattern the planner will
     actually see; pruning preserves well-designedness (see Prune), so
     the verdict of the original still governs. An empty residual has
     nothing to measure. *)
  let width =
    match pruned.Prune.outcome with
    | Prune.Empty ->
        Width_unavailable
          "the pattern is unsatisfiable: its answer set is empty on every \
           graph"
    | Prune.Pattern residual -> width_of ?budget ~designedness residual
  in
  {
    source;
    pattern;
    spans;
    designedness;
    width;
    diagnostics;
    satisfiability;
    canonical;
    pruned;
  }

let of_source ?graph ?budget ?(source = "query") text =
  match Sparql.Parser.parse_spanned text with
  | Ok (pattern, spans) -> Ok (analyze ?graph ?budget ~source ~spans pattern)
  | Error msg ->
      let line = Scanf.sscanf_opt msg "line %d:" Fun.id in
      Error
        (Wdsparql_error.Parse_error
           { source; line = Option.value line ~default:0; col = 0; msg })

let has_findings r = r.diagnostics <> []

let node_spans ~spans tree =
  List.map
    (fun n ->
      let sp =
        List.fold_left
          (fun acc t -> Sparql.Span.join acc (Spans.triple_span spans t))
          Sparql.Span.dummy
          (Tgraphs.Tgraph.triples (Wdpt.Pattern_tree.pat tree n))
      in
      (n, sp))
    (Wdpt.Pattern_tree.nodes tree)

let to_json r =
  Json.Obj
    [
      ("analyzer", Json.String "wdsparql-analyze");
      ("schema", Json.Int 2);
      ("source", Json.String r.source);
      ( "verdict",
        Json.String (Designedness.verdict_to_string r.designedness.verdict) );
      ( "satisfiability",
        Json.Obj
          (( "verdict",
             Json.String (Satisfiability.verdict_name r.satisfiability) )
          ::
          (match r.satisfiability with
          | Satisfiability.Unknown why -> [ ("reason", Json.String why) ]
          | Satisfiability.Sat _ | Satisfiability.Unsat -> [])) );
      ("canonical_hash", Json.String r.canonical.Canonical.hash);
      ( "prune",
        Json.Obj
          [
            ("changed", Json.Bool r.pruned.Prune.changed);
            ( "empty",
              Json.Bool (r.pruned.Prune.outcome = Prune.Empty) );
            ( "rewrites",
              Json.Int (List.length r.pruned.Prune.rewrites) );
          ] );
      ( "width",
        match r.width with
        | Width w -> Width_est.to_json w
        | Width_unavailable why -> Json.Obj [ ("unavailable", Json.String why) ]
      );
      ("diagnostics", Json.List (List.map Diagnostic.to_json r.diagnostics));
    ]

let pp ppf r =
  Fmt.pf ppf "%s: %s" r.source
    (Designedness.verdict_to_string r.designedness.verdict);
  Fmt.pf ppf "@.satisfiability: %a" Satisfiability.pp r.satisfiability;
  Fmt.pf ppf "@.canonical: %s" r.canonical.Canonical.hash;
  if r.pruned.Prune.changed then
    Fmt.pf ppf "@.prune: %d rewrite(s)%s"
      (List.length r.pruned.Prune.rewrites)
      (if r.pruned.Prune.outcome = Prune.Empty then
         ", residual is empty"
       else "");
  (match r.width with
  | Width w -> Fmt.pf ppf "@.width: %a" Width_est.pp w
  | Width_unavailable why -> Fmt.pf ppf "@.width: n/a — %s" why);
  List.iter (fun d -> Fmt.pf ppf "@.%a" Diagnostic.pp d) r.diagnostics;
  match List.length r.diagnostics with
  | 0 -> Fmt.pf ppf "@.clean: no findings"
  | n -> Fmt.pf ppf "@.%d finding%s" n (if n = 1 then "" else "s")
