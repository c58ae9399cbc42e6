(* The static analyzer (lib/analysis) and the codebase discipline lint
   (tools/lint):

   - the designedness verdict agrees with Sparql.Well_designed.check and
     with Wdpt.Translate on generated patterns (well-designed families
     and an unconstrained generator that also produces violations);
   - diagnostics round-trip through the JSON encoding, byte-exact;
   - spans point where they should on hand-written fixtures;
   - every lint rule fires on its minimal triggering query;
   - static width estimates bound the exact domination width and feed
     Engine.plan as hints;
   - the budget-discipline lint is clean on a compliant tree and fails,
     with file:line, on seeded violations. *)

open Rdf
module A = Sparql.Algebra
module D = Analysis.Designedness

let check = Alcotest.check

let qcheck ?(count = 220) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let seed_arb = QCheck.make QCheck.Gen.(int_bound 1_000_000)

let parse src =
  match Sparql.Parser.parse_spanned src with
  | Ok r -> r
  | Error msg -> Alcotest.failf "parse: %s" msg

let analyze ?graph src =
  match Analysis.Analyzer.of_source ?graph src with
  | Ok r -> r
  | Error e -> Alcotest.failf "analyze: %a" Wdsparql_error.pp e

let rules report =
  List.map (fun d -> d.Analysis.Diagnostic.rule) report.Analysis.Analyzer.diagnostics

let has_rule rule report = List.mem rule (rules report)

(* ------------------------------------------------------------------ *)
(* Verdict agreement (satellite: property test)                        *)
(* ------------------------------------------------------------------ *)

(* Unconstrained random patterns: small variable pool and free OPT
   nesting, so well-designedness violations are frequent. *)
let random_pattern seed =
  let st = Random.State.make [| seed |] in
  let term_var () = Term.var (Printf.sprintf "v%d" (Random.State.int st 5)) in
  let triple () =
    A.triple
      (Triple.make (term_var ())
         (Term.iri (Printf.sprintf "p%d" (Random.State.int st 2)))
         (term_var ()))
  in
  let rec go depth =
    if depth = 0 then triple ()
    else
      match Random.State.int st 6 with
      | 0 | 1 -> triple ()
      | 2 -> A.and_ (go (depth - 1)) (go (depth - 1))
      | 3 | 4 -> A.opt (go (depth - 1)) (go (depth - 1))
      | _ -> A.union (go (depth - 1)) (go (depth - 1))
  in
  go (2 + Random.State.int st 2)

let translates p =
  match Wdpt.Translate.forest_of_algebra p with
  | (_ : Wdpt.Pattern_tree.t list) -> true
  | exception Wdpt.Translate.Not_well_designed _ -> false

let agreement p =
  let verdict = (D.analyze p).D.verdict in
  let checked = Result.is_ok (Sparql.Well_designed.check p) in
  (verdict = D.Well_designed) = checked
  && (not (A.is_core p)) || checked = translates p

let verdict_agreement_random =
  qcheck "analyzer verdict = Well_designed iff check = Ok (random)" seed_arb
    (fun seed -> agreement (random_pattern seed))

let verdict_agreement_wd =
  qcheck "generated wd families are verdict Well_designed" seed_arb
    (fun seed ->
      let p = Testutil.wd_pattern_of_seed seed in
      (D.analyze p).D.verdict = D.Well_designed && agreement p)

let weakly_is_not_well =
  qcheck "weak/ill verdicts imply check = Error" seed_arb (fun seed ->
      let p = random_pattern seed in
      match (D.analyze p).D.verdict with
      | D.Well_designed -> true
      | D.Weakly_well_designed | D.Ill_designed ->
          Result.is_error (Sparql.Well_designed.check p))

(* The translate witness (satellite: Translate returns the violation) *)
let test_translate_witness () =
  let p, _ = parse "{ ?a p:p ?o OPTIONAL { ?a p:q ?y } ?b p:r ?y }" in
  match Wdpt.Translate.forest_of_algebra p with
  | _ -> Alcotest.fail "expected Not_well_designed"
  | exception Wdpt.Translate.Not_well_designed
      (Sparql.Well_designed.Unsafe_variable { variable; outside; _ }) ->
      check Alcotest.string "violating variable" "y"
        (Fmt.str "%a" Variable.pp variable |> fun s ->
         String.sub s 1 (String.length s - 1));
      check Alcotest.bool "witness names the re-occurrence" true
        (Variable.Set.mem variable (A.vars outside))
  | exception Wdpt.Translate.Not_well_designed v ->
      Alcotest.failf "unexpected violation %a" Sparql.Well_designed.pp_violation v

(* ------------------------------------------------------------------ *)
(* Diagnostic JSON round-trip (satellite: property test)               *)
(* ------------------------------------------------------------------ *)

let diagnostic_gen =
  let open QCheck.Gen in
  let nasty_string =
    string_size ~gen:(oneof [ char_range 'a' 'z'; oneofl [ '"'; '\\'; '\n'; '\t'; '?'; ':'; '\001' ] ])
      (int_bound 14)
  in
  let pos = map2 (fun line col -> { Sparql.Span.line; col }) (int_range 1 99) (int_range 0 99) in
  let span =
    oneof
      [
        return Sparql.Span.dummy;
        map2 (fun start stop -> Sparql.Span.make ~start ~stop) pos pos;
      ]
  in
  let related =
    map2 (fun where note -> { Analysis.Diagnostic.where; note }) span nasty_string
  in
  let severity = oneofl Analysis.Diagnostic.[ Error; Warning; Info ] in
  map
    (fun (rule, severity, span, message, related, heuristic) ->
      Analysis.Diagnostic.make ~rule ~severity ~span ~related ~heuristic message)
    (tup6 nasty_string severity span nasty_string
       (list_size (int_bound 3) related)
       bool)

let diagnostic_arb =
  QCheck.make
    ~print:(fun d -> Analysis.Json.to_string (Analysis.Diagnostic.to_json d))
    diagnostic_gen

let json_roundtrip =
  qcheck ~count:300 "diagnostic JSON round-trips byte-exactly" diagnostic_arb
    (fun d ->
      let text = Analysis.Json.to_string (Analysis.Diagnostic.to_json d) in
      match Analysis.Json.of_string text with
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e
      | Ok j -> (
          match Analysis.Diagnostic.of_json j with
          | Error e -> QCheck.Test.fail_reportf "of_json failed: %s" e
          | Ok d' -> d = d'))

let test_report_json () =
  let report = analyze "{ { ?a p:p ?o OPTIONAL { ?a p:q ?y } } { ?b p:r ?o2 OPTIONAL { ?b p:s ?y } } }" in
  let text = Analysis.Json.to_string (Analysis.Analyzer.to_json report) in
  match Analysis.Json.of_string text with
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e
  | Ok j ->
      let member k = Analysis.Json.member k j in
      check Alcotest.(option string) "verdict" (Some "ill-designed")
        (Option.bind (member "verdict") Analysis.Json.to_str);
      let diags =
        Option.bind (member "diagnostics") Analysis.Json.to_list
        |> Option.value ~default:[]
      in
      check Alcotest.bool "every diagnostic decodes" true
        (List.for_all
           (fun d -> Result.is_ok (Analysis.Diagnostic.of_json d))
           diags)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_spans () =
  let src = "{ ?x p:knows ?y .\n  OPTIONAL { ?y p:email ?m } }" in
  let p, spans = parse src in
  (match p with
  | A.Opt (left, right) ->
      let opt_span = Sparql.Spans.find_or_dummy spans p in
      check Alcotest.int "opt starts on line 1" 1 opt_span.Sparql.Span.start.line;
      check Alcotest.int "opt ends on line 2" 2 opt_span.Sparql.Span.stop.line;
      let left_span = Sparql.Spans.find_or_dummy spans left in
      check Alcotest.int "left arm is the line-1 triple" 1
        left_span.Sparql.Span.stop.line;
      let right_span = Sparql.Spans.find_or_dummy spans right in
      check Alcotest.int "right arm sits on line 2" 2
        right_span.Sparql.Span.start.line
  | _ -> Alcotest.fail "expected an OPT at top level");
  (* ill-designed witness spans: the two OPT subpatterns are reported *)
  let report =
    analyze
      "{ { ?a p:p ?o OPTIONAL { ?a p:q ?y } }\n\
      \  { ?b p:r ?o2 OPTIONAL { ?b p:s ?y } } }"
  in
  match
    List.find_opt
      (fun d -> d.Analysis.Diagnostic.rule = "wd-unsafe-variable")
      report.Analysis.Analyzer.diagnostics
  with
  | None -> Alcotest.fail "expected a wd-unsafe-variable finding"
  | Some d ->
      check Alcotest.bool "primary span is real" false
        (Sparql.Span.is_dummy d.Analysis.Diagnostic.span);
      let second_opt =
        List.exists
          (fun r ->
            (not (Sparql.Span.is_dummy r.Analysis.Diagnostic.where))
            && r.Analysis.Diagnostic.where.Sparql.Span.start.line = 2)
          d.Analysis.Diagnostic.related
      in
      check Alcotest.bool "a related span points at the second OPT (line 2)"
        true second_opt

let test_node_spans () =
  let src = "{ ?x p:knows ?y .\n  OPTIONAL { ?y p:email ?m } }" in
  let p, spans = parse src in
  let tree = Wdpt.Translate.tree_of_algebra p in
  let node_spans = Analysis.Analyzer.node_spans ~spans tree in
  check Alcotest.int "one span per node" (Wdpt.Pattern_tree.size tree)
    (List.length node_spans);
  List.iter
    (fun (n, sp) ->
      check Alcotest.bool (Fmt.str "node %d span is real" n) false
        (Sparql.Span.is_dummy sp))
    node_spans

(* ------------------------------------------------------------------ *)
(* Lint rules: each fires on its minimal query                         *)
(* ------------------------------------------------------------------ *)

let test_lint_triggers () =
  let fires rule src =
    check Alcotest.bool (rule ^ " fires") true (has_rule rule (analyze src))
  in
  fires "projected-variable-unused" "SELECT ?x ?ghost WHERE { ?x p:p ?y }";
  fires "possibly-unbound-variable"
    "SELECT ?x ?m WHERE { ?x p:p ?y OPTIONAL { ?y p:q ?m } }";
  fires "dead-optional" "{ ?x p:p ?y OPTIONAL { ?x p:q ?y } }";
  fires "union-normal-form"
    "{ ?x p:p ?y OPTIONAL { { ?x p:q ?z } UNION { ?x p:r ?z } } }";
  fires "duplicate-triple" "{ ?x p:p ?y . ?x p:p ?y }";
  fires "wd-unsafe-variable" "{ ?a p:p ?o OPTIONAL { ?a p:q ?y } ?b p:r ?y }";
  fires "wwd-optional-reuse"
    "{ { ?x p:a ?y OPTIONAL { ?y p:b ?z } } OPTIONAL { ?z p:c ?w } }";
  fires "wd-unsafe-filter" "{ ?x p:p ?y FILTER (?z = ?y) }";
  (* the parser only accepts top-level SELECT, so build the nested one *)
  let nested_select =
    A.and_
      (A.triple (Triple.make (Term.var "x") (Term.iri "p") (Term.var "y")))
      (A.select
         (Variable.Set.singleton (Variable.of_string "y"))
         (A.triple (Triple.make (Term.var "y") (Term.iri "q") (Term.var "z"))))
  in
  let report =
    Analysis.Analyzer.analyze ~spans:Sparql.Spans.empty nested_select
  in
  check Alcotest.bool "wd-nested-select fires" true
    (List.exists
       (fun d -> d.Analysis.Diagnostic.rule = "wd-nested-select")
       report.Analysis.Analyzer.diagnostics);
  (* clean corpus queries stay clean *)
  let clean = analyze "{ ?who p:knows ?friend OPTIONAL { ?friend p:email ?m } }" in
  check (Alcotest.list Alcotest.string) "clean query has no findings" []
    (rules clean);
  check Alcotest.bool "has_findings mirrors diagnostics" false
    (Analysis.Analyzer.has_findings clean)

let test_unsatisfiable_triple () =
  (* exact reading: the decision procedure needs no store *)
  let storeless = analyze "{ ?x p:p ?y FILTER (?x != ?x) }" in
  check Alcotest.bool "exact unsat fires without a store" true
    (has_rule "unsatisfiable-triple" storeless);
  let exact =
    List.find
      (fun d -> d.Analysis.Diagnostic.rule = "unsatisfiable-triple")
      storeless.Analysis.Analyzer.diagnostics
  in
  check Alcotest.bool "the exact finding is not heuristic" false
    exact.Analysis.Diagnostic.heuristic;
  (* a satisfiable query over an absent predicate is a vocabulary
     mismatch of this store, not unsatisfiability *)
  let graph = Testutil.graph_of_seed 7 in
  (* generator predicates are p:q0/p:q1: p:nosuch never occurs *)
  let report = analyze ~graph "{ ?x p:nosuch ?y }" in
  check Alcotest.bool "satisfiable query is not called unsatisfiable" false
    (has_rule "unsatisfiable-triple" report);
  check Alcotest.bool "vocabulary-mismatch fires with a store" true
    (has_rule "vocabulary-mismatch" report);
  check Alcotest.bool "vocabulary-mismatch needs a store" false
    (has_rule "vocabulary-mismatch" (analyze "{ ?x p:nosuch ?y }"));
  (* an undecided pattern plus a store: the old vocabulary check runs as
     the fallback, and its findings say so *)
  let undecided =
    "{ { ?x p:nosuch ?y OPTIONAL { ?x p:nosuch ?z } } FILTER (!BOUND(?z)) }"
  in
  (match
     Analysis.Satisfiability.decide_quietly
       ~fuel:Analysis.Lints.satisfiability_fuel
       (fst (parse undecided))
   with
  | Analysis.Satisfiability.Unknown _ -> ()
  | v ->
      Alcotest.failf "expected an undecided verdict, got %s"
        (Analysis.Satisfiability.verdict_name v));
  match
    List.find_opt
      (fun d -> d.Analysis.Diagnostic.rule = "unsatisfiable-triple")
      (analyze ~graph undecided).Analysis.Analyzer.diagnostics
  with
  | None -> Alcotest.fail "expected the labeled heuristic fallback"
  | Some d ->
      check Alcotest.bool "the fallback finding is heuristic" true
        d.Analysis.Diagnostic.heuristic;
      check Alcotest.bool "its JSON carries the heuristic flag" true
        (Astring.String.is_infix ~affix:"\"heuristic\""
           (Analysis.Json.to_string (Analysis.Diagnostic.to_json d)))

(* ------------------------------------------------------------------ *)
(* Satisfiability, canonical forms, pruning (tentpole)                 *)
(* ------------------------------------------------------------------ *)

module Sat = Analysis.Satisfiability
module Canon = Analysis.Canonical
module Prune = Analysis.Prune
module C = Sparql.Condition

let decide src = Sat.decide_quietly ~fuel:100_000 (fst (parse src))

let test_satisfiability_cases () =
  (match decide "{ ?x p:p ?y }" with
  | Sat.Sat { witness } ->
      check Alcotest.bool "the witness graph verifies" false
        (Sparql.Mapping.Set.is_empty
           (Sparql.Eval.eval (fst (parse "{ ?x p:p ?y }")) witness))
  | v -> Alcotest.failf "expected sat, got %s" (Sat.verdict_name v));
  let unsat name src =
    match decide src with
    | Sat.Unsat -> ()
    | v -> Alcotest.failf "%s: expected unsat, got %s" name (Sat.verdict_name v)
  in
  unsat "x != x" "{ ?x p:p ?y FILTER (?x != ?x) }";
  unsat "!BOUND on a mandatory variable" "{ ?x p:p ?y FILTER (!BOUND(?x)) }";
  unsat "two distinct constants" "{ ?x p:p ?y FILTER (?x = p:a && ?x = p:b) }";
  unsat "equality with its own negation"
    "{ ?x p:p ?y FILTER (?x = ?y && ?y != ?x) }";
  unsat "contradiction inside a union branch, both branches"
    "{ { ?x p:p ?y FILTER (?x != ?x) } UNION { ?x p:q ?y FILTER (?y != ?y) } }";
  (* a contradictory OPT arm is skippable: the pattern stays satisfiable *)
  (match decide "{ ?x p:p ?y OPTIONAL { ?x p:p ?z FILTER (?z != ?z) } }" with
  | Sat.Sat _ -> ()
  | v ->
      Alcotest.failf "skippable OPT arm: expected sat, got %s"
        (Sat.verdict_name v));
  (* the OPT re-match trap: the skip-scenario is consistent but every
     graph re-matches the arm — the verdict must never be Sat *)
  match
    decide "{ { ?x p:p ?y OPTIONAL { ?x p:p ?z } } FILTER (!BOUND(?z)) }"
  with
  | Sat.Sat _ -> Alcotest.fail "re-match trap misreported sat"
  | Sat.Unsat | Sat.Unknown _ -> ()

(* Random patterns over the generator vocabulary (predicates p:q0/p:q1,
   nodes n:0..n:5) with FILTERs mixing BOUND, equality, negation and
   connectives — satisfiable ones frequently have solutions on
   [Testutil.graph_of_seed] stores, so the differential test bites. *)
let random_filtered_pattern seed =
  let st = Random.State.make [| seed; 4242 |] in
  let var () = Printf.sprintf "v%d" (Random.State.int st 5) in
  let const () = Term.iri (Printf.sprintf "n:%d" (Random.State.int st 6)) in
  let term () =
    if Random.State.int st 4 = 0 then const () else Term.var (var ())
  in
  let triple () =
    A.triple
      (Triple.make (term ())
         (Term.iri (Printf.sprintf "p:q%d" (Random.State.int st 2)))
         (term ()))
  in
  let rec cond depth =
    if depth = 0 then
      match Random.State.int st 3 with
      | 0 -> C.bound (var ())
      | 1 -> C.eq (Term.var (var ())) (term ())
      | _ -> C.neq (Term.var (var ())) (term ())
    else
      match Random.State.int st 4 with
      | 0 -> C.Not (cond (depth - 1))
      | 1 -> C.And (cond (depth - 1), cond (depth - 1))
      | 2 -> C.Or (cond (depth - 1), cond (depth - 1))
      | _ -> cond 0
  in
  let rec go depth =
    if depth = 0 then triple ()
    else
      match Random.State.int st 8 with
      | 0 | 1 -> triple ()
      | 2 | 3 -> A.and_ (go (depth - 1)) (go (depth - 1))
      | 4 -> A.opt (go (depth - 1)) (go (depth - 1))
      | 5 -> A.union (go (depth - 1)) (go (depth - 1))
      | _ -> A.filter (go (depth - 1)) (cond (1 + Random.State.int st 2))
  in
  go (2 + Random.State.int st 2)

let satisfiability_differential =
  qcheck ~count:320 "verdicts agree with the reference evaluator" seed_arb
    (fun seed ->
      let p = random_filtered_pattern seed in
      match Sat.decide_quietly ~fuel:100_000 p with
      | Sat.Unsat ->
          (* unsat is a universal claim: no store may yield a solution *)
          List.for_all
            (fun i ->
              Sparql.Mapping.Set.is_empty
                (Sparql.Eval.eval p (Testutil.graph_of_seed (seed + i))))
            [ 0; 1; 2 ]
      | Sat.Sat { witness } ->
          not (Sparql.Mapping.Set.is_empty (Sparql.Eval.eval p witness))
      | Sat.Unknown _ -> true)

let prune_soundness =
  qcheck ~count:300 "pruning never changes answers" seed_arb (fun seed ->
      let p = random_filtered_pattern seed in
      let pruned = Prune.run p in
      List.for_all
        (fun i ->
          let g = Testutil.graph_of_seed (seed + i) in
          let expected = Sparql.Eval.eval p g in
          let actual =
            match pruned.Prune.outcome with
            | Prune.Empty -> Sparql.Mapping.Set.empty
            | Prune.Pattern residual -> Sparql.Eval.eval residual g
          in
          Sparql.Mapping.Set.equal expected actual)
        [ 0; 1 ])

let test_prune_rules () =
  let run src = Prune.run (fst (parse src)) in
  let rules r = List.map (fun d -> d.Analysis.Diagnostic.rule) r.Prune.rewrites in
  (* contradictory whole pattern: Empty, no evaluation needed *)
  let r = run "{ ?x p:p ?y FILTER (?x != ?x) }" in
  check Alcotest.bool "filter-false prunes to Empty" true
    (r.Prune.outcome = Prune.Empty && r.Prune.changed);
  check Alcotest.bool "filter-false diagnostic emitted" true
    (List.mem "prune-filter-false" (rules r));
  (* contradictory OPT arm: the left side survives alone *)
  let r = run "{ ?x p:p ?y OPTIONAL { ?x p:q ?z FILTER (?z != ?z) } }" in
  (match r.Prune.outcome with
  | Prune.Pattern residual ->
      check Testutil.algebra "unsat OPT arm dropped"
        (fst (parse "{ ?x p:p ?y }"))
        residual
  | Prune.Empty -> Alcotest.fail "left side must survive");
  check Alcotest.bool "unsat-optional diagnostic emitted" true
    (List.mem "prune-unsat-optional" (rules r));
  (* contradictory UNION branch: the other branch survives *)
  let r =
    run "{ { ?x p:p ?y FILTER (?x != ?x) } UNION { ?x p:q ?y } }"
  in
  (match r.Prune.outcome with
  | Prune.Pattern residual ->
      check Testutil.algebra "unsat UNION branch dropped"
        (fst (parse "{ ?x p:q ?y }"))
        residual
  | Prune.Empty -> Alcotest.fail "the live branch must survive");
  (* duplicate triple in one conjunction scope *)
  let r = run "{ ?x p:p ?y . ?x p:p ?y }" in
  (match r.Prune.outcome with
  | Prune.Pattern residual ->
      check Testutil.algebra "duplicate conjunct dropped"
        (fst (parse "{ ?x p:p ?y }"))
        residual
  | Prune.Empty -> Alcotest.fail "deduplication must keep one copy");
  check Alcotest.bool "duplicate-triple diagnostic emitted" true
    (List.mem "prune-duplicate-triple" (rules r));
  (* a clean query is returned physically intact, no diagnostics *)
  let p = fst (parse "{ ?x p:p ?y OPTIONAL { ?y p:q ?z } }") in
  let r = Prune.run p in
  (match r.Prune.outcome with
  | Prune.Pattern residual ->
      check Alcotest.bool "clean pattern physically unchanged" true
        (residual == p)
  | Prune.Empty -> Alcotest.fail "clean pattern pruned away");
  check Alcotest.bool "no rewrites on a clean pattern" false r.Prune.changed

let canonical_key src = (Canon.of_pattern (fst (parse src))).Canon.key

let test_canonical_keys () =
  let same name a b =
    check Alcotest.string name (canonical_key a) (canonical_key b)
  in
  same "conjunct order" "{ ?a p:p ?b . ?c p:q ?d }"
    "{ ?c p:q ?d . ?a p:p ?b }";
  same "alpha renaming" "{ ?x p:p ?y OPTIONAL { ?y p:q ?z } }"
    "{ ?s p:p ?o OPTIONAL { ?o p:q ?m } }";
  same "union branch order" "{ { ?x p:p ?y } UNION { ?x p:q ?y } }"
    "{ { ?a p:q ?b } UNION { ?a p:p ?b } }";
  same "equality orientation" "{ ?x p:p ?y FILTER (?x = ?y) }"
    "{ ?x p:p ?y FILTER (?y = ?x) }";
  same "condition order" "{ ?x p:p ?y FILTER (BOUND(?x) && BOUND(?y)) }"
    "{ ?x p:p ?y FILTER (BOUND(?y) && BOUND(?x)) }";
  check Alcotest.bool "distinct queries keep distinct keys" false
    (String.equal (canonical_key "{ ?x p:p ?y }")
       (canonical_key "{ ?x p:q ?y }"));
  (* OPT is not commutative: swapped arms must not collide *)
  check Alcotest.bool "OPT arms are not interchangeable" false
    (String.equal
       (canonical_key "{ ?x p:p ?y OPTIONAL { ?x p:q ?z } }")
       (canonical_key "{ ?x p:q ?z OPTIONAL { ?x p:p ?y } }"))

let canonical_rename_back =
  qcheck ~count:200 "canonical eval + rename_back = original eval" seed_arb
    (fun seed ->
      let p = Testutil.wd_pattern_of_seed seed in
      let canon = Canon.of_pattern p in
      let g = Testutil.graph_of_seed (seed + 1) in
      let renamed =
        Sparql.Mapping.Set.fold
          (fun mu acc ->
            Sparql.Mapping.Set.add (Canon.rename_back canon mu) acc)
          (Sparql.Eval.eval canon.Canon.pattern g)
          Sparql.Mapping.Set.empty
      in
      Sparql.Mapping.Set.equal renamed (Sparql.Eval.eval p g))

let canonical_key_stable_under_renaming =
  qcheck ~count:200 "generated patterns: key survives variable renaming"
    seed_arb (fun seed ->
      let p = Testutil.wd_pattern_of_seed seed in
      let rename t =
        match t with
        | Term.Var v -> Term.var ("fresh_" ^ Variable.to_string v)
        | t -> t
      in
      let rec map_pattern = function
        | A.Triple t ->
            A.triple
              (Triple.make (rename t.Triple.s) t.Triple.p (rename t.Triple.o))
        | A.And (a, b) -> A.and_ (map_pattern a) (map_pattern b)
        | A.Opt (a, b) -> A.opt (map_pattern a) (map_pattern b)
        | A.Union (a, b) -> A.union (map_pattern a) (map_pattern b)
        | A.Filter (q, c) -> A.filter (map_pattern q) c
        | A.Select (vs, q) -> A.select vs (map_pattern q)
      in
      (* wd generator families are FILTER/SELECT-free, so the condition
         and projection arms above never rename inconsistently *)
      String.equal (Canon.of_pattern p).Canon.key
        (Canon.of_pattern (map_pattern p)).Canon.key)

(* ------------------------------------------------------------------ *)
(* Width estimates and Engine.plan hints                               *)
(* ------------------------------------------------------------------ *)

let width_bounds_sound =
  qcheck ~count:120 "static dw_upper bounds the exact dw" seed_arb (fun seed ->
      let p = Testutil.wd_pattern_of_seed seed in
      let forest = Wdpt.Pattern_forest.of_algebra p in
      let est = Analysis.Width_est.estimate forest in
      match est.Analysis.Width_est.dw_exact with
      | None -> QCheck.Test.fail_reportf "exact dw not computed"
      | Some dw ->
          dw <= est.Analysis.Width_est.dw_upper
          && dw = Wd_core.Domination_width.of_forest forest)

let test_plan_consumes_hints () =
  let p, _ = parse "{ ?x p:knows ?y OPTIONAL { ?y p:email ?m } }" in
  (* exact hint: planning skips the dw computation and trusts the value *)
  let hints = { Wd_core.Engine.dw_exact = Some 2; dw_upper = None } in
  let plan = Wd_core.Engine.plan ~hints p in
  check Alcotest.int "hinted dw is used" 2 plan.Wd_core.Engine.domination_width;
  (match plan.Wd_core.Engine.width_source with
  | Wd_core.Engine.From_hint { exact = true } -> ()
  | _ -> Alcotest.fail "expected From_hint {exact = true}");
  (* upper-bound hint: used when the exact computation exhausts *)
  let hints = { Wd_core.Engine.dw_exact = None; dw_upper = Some 3 } in
  let plan =
    Wd_core.Engine.plan ~budget:(Resource.Budget.make ~fuel:1 ()) ~hints p
  in
  check Alcotest.int "hinted upper bound on exhaustion" 3
    plan.Wd_core.Engine.domination_width;
  (match plan.Wd_core.Engine.width_source with
  | Wd_core.Engine.From_hint { exact = false } -> ()
  | _ -> Alcotest.fail "expected From_hint {exact = false}");
  (* an analyzer-produced hint reproduces the engine's own exact width *)
  let p = Testutil.wd_pattern_of_seed 42 in
  let est = Analysis.Width_est.estimate (Wdpt.Pattern_forest.of_algebra p) in
  let hinted = Wd_core.Engine.plan ~hints:(Analysis.Width_est.hints est) p in
  let unhinted = Wd_core.Engine.plan p in
  check Alcotest.int "hinted plan width = computed width"
    unhinted.Wd_core.Engine.domination_width
    hinted.Wd_core.Engine.domination_width;
  (* hinted evaluation still matches the reference semantics *)
  let graph = Testutil.graph_of_seed 43 in
  check Alcotest.bool "hinted plan answers correctly" true
    (Sparql.Mapping.Set.equal
       (Sparql.Eval.eval p graph)
       (Wd_core.Engine.solutions hinted graph))

(* ------------------------------------------------------------------ *)
(* Budget-discipline codebase lint (satellite: seeded violation)       *)
(* ------------------------------------------------------------------ *)

let with_scratch_tree files f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wdsparql_lint_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists root then rm root;
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  List.iter
    (fun (rel, contents) ->
      let path = Filename.concat root rel in
      mkdir_p (Filename.dirname path);
      let oc = open_out path in
      output_string oc contents;
      close_out oc)
    files;
  Fun.protect ~finally:(fun () -> rm root) (fun () -> f root)

let test_strip () =
  let src =
    "let x = (* Pebble_game.wins (* nested *) *) 1\n\
     let s = \"Pebble_game.wins\"\n\
     let w = Pebble_game.wins\n"
  in
  let stripped = Lint_rules.strip src in
  check Alcotest.int "same length" (String.length src) (String.length stripped);
  check Alcotest.int "newlines preserved" 3
    (String.fold_left (fun k c -> if c = '\n' then k + 1 else k) 0 stripped);
  (* only the real call survives: one occurrence, on line 3 *)
  let occurrences =
    let needle = "Pebble_game.wins" in
    let rec go i acc =
      match String.index_from_opt stripped i 'P' with
      | None -> acc
      | Some j ->
          if
            j + String.length needle <= String.length stripped
            && String.sub stripped j (String.length needle) = needle
          then go (j + 1) (acc + 1)
          else go (j + 1) acc
    in
    go 0 0
  in
  check Alcotest.int "comments and strings blanked" 1 occurrences

let test_codebase_lint_clean () =
  check (Alcotest.list Alcotest.string) "real tree has no lint surprises" []
    (List.map (Fmt.str "%a" Lint_rules.pp_violation)
       (with_scratch_tree
          [
            ("core/kernel.ml", "let search b = Resource.Budget.tick b\n");
            ("pebble/caller.ml", "let go = Pebble_game.wins\n");
            ("tgraph/target.ml", "let idx g = Rdf.Graph.to_index g\n");
          ]
          (fun root ->
            Lint_rules.check_tree ~manifest:[ "core/kernel.ml" ] ~root ())))

let test_codebase_lint_seeded () =
  with_scratch_tree
    [
      (* kernel that forgot its Budget.tick *)
      ("core/kernel.ml", "let search x = x + 1 (* Budget.tick mentioned *)\n");
      (* forbidden direct call outside lib/core, on line 2 *)
      ("wdpt/sneaky.ml", "let a = 1\nlet b = Pebble.Pebble_game.wins\n");
      (* the engine itself may not call the term game either *)
      ("core/caller.ml", "let go = Pebble_game.wins\n");
      (* nor force the term index, in lib/core or lib/server (line 3) *)
      ("core/indexed.ml", "let a = 1\nlet b = 2\nlet i = Graph.to_index\n");
      ("server/indexed.ml", "let i g = Rdf.Graph.to_index g\n");
      (* string/comment mentions do not count *)
      ("rdf/honest.ml", "let s = \"Pebble_game.wins\" (* Pebble_game.wins *)\n");
      ( "core/honest.ml",
        "let s = \"Graph.to_index\" (* Graph.to_index *)\n" );
    ]
    (fun root ->
      let violations = Lint_rules.check_tree ~manifest:[ "core/kernel.ml" ] ~root () in
      check Alcotest.int "exactly the five seeded violations" 5
        (List.length violations);
      let rendered = List.map (Fmt.str "%a" Lint_rules.pp_violation) violations in
      check Alcotest.bool "missing tick reported with file" true
        (List.exists
           (fun s ->
             Astring.String.is_infix ~affix:"core/kernel.ml:1" s
             && Astring.String.is_infix ~affix:"Budget.tick" s)
           rendered);
      check Alcotest.bool "forbidden wins reported with file:line" true
        (List.exists
           (fun s -> Astring.String.is_infix ~affix:"wdpt/sneaky.ml:2" s)
           rendered);
      check Alcotest.bool "wins under lib/core flagged" true
        (List.exists
           (fun s -> Astring.String.is_infix ~affix:"core/caller.ml:1" s)
           rendered);
      List.iter
        (fun at ->
          check Alcotest.bool ("Graph.to_index flagged at " ^ at) true
            (List.exists
               (fun s ->
                 Astring.String.is_infix ~affix:at s
                 && Astring.String.is_infix ~affix:"Graph.to_index" s)
               rendered))
        [ "core/indexed.ml:3"; "server/indexed.ml:1" ]);
  (* a manifest entry that vanished (renamed kernel) is itself flagged *)
  with_scratch_tree
    [ ("core/present.ml", "let f b = Resource.Budget.tick b\n") ]
    (fun root ->
      let violations =
        Lint_rules.check_tree ~manifest:[ "core/gone.ml"; "core/present.ml" ]
          ~root ()
      in
      check Alcotest.int "missing manifest entry flagged" 1
        (List.length violations))

(* PR 6 satellite: raw socket I/O is confined to lib/server/io.ml. *)
let test_codebase_lint_raw_io () =
  with_scratch_tree
    [
      (* seeded violation: a bare Unix.read outside the io module, line 2 *)
      ( "workload/leaky.ml",
        "let buf = Bytes.create 64\nlet n fd = Unix.read fd buf 0 64\n" );
      (* the io module itself is allowed to use the raw calls *)
      ( "server/io.ml",
        "let read_chunk fd buf = Unix.read fd buf 0 (Bytes.length buf)\n\
         let write_all fd s = Unix.write_substring fd s 0 (String.length s)\n"
      );
      (* string/comment mentions elsewhere do not count *)
      ( "server/http.ml",
        "let doc = \"Unix.read\" (* never call Unix.write here *)\n" );
    ]
    (fun root ->
      let violations = Lint_rules.check_tree ~manifest:[] ~root () in
      let rendered =
        List.map (Fmt.str "%a" Lint_rules.pp_violation) violations
      in
      check Alcotest.int "exactly the seeded raw-I/O violation" 1
        (List.length violations);
      check Alcotest.bool "reported with file:line and the offending call"
        true
        (List.exists
           (fun s ->
             Astring.String.is_infix ~affix:"workload/leaky.ml:2" s
             && Astring.String.is_infix ~affix:"Unix.read" s)
           rendered))

(* Idle threads block on a condition instead of sleep-polling: each
   file has a sleep allowance and every occurrence past it is flagged. *)
let test_codebase_lint_sleep_poll () =
  with_scratch_tree
    [
      (* seeded violation: a worker polling its queue on a timer, past
         the two drain-time waits the server module is allowed *)
      ( "server/server.ml",
        "let join t = Thread.delay 0.02; Thread.delay 0.01; t
         let rec worker_loop t =
        \  if Queue.is_empty t then (Thread.delay 0.002; worker_loop t)
" );
      (* a poll anywhere else has no allowance at all, line 2 *)
      ("workload/poller.ml", "let a = 1
let wait () = Unix.sleepf 0.002
");
      (* the io module's one injected stall is allowed *)
      ("server/io.ml", "let stall d = Unix.sleepf (min 0.05 d)
");
      (* string/comment mentions do not count *)
      ( "server/http.ml",
        "let doc = \"Thread.delay\" (* never Unix.sleepf here *)\n" );
    ]
    (fun root ->
      let violations = Lint_rules.check_tree ~manifest:[] ~root () in
      let rendered =
        List.map (Fmt.str "%a" Lint_rules.pp_violation) violations
      in
      check Alcotest.int "exactly the two seeded polls" 2
        (List.length violations);
      check Alcotest.bool "the worker poll is flagged with file:line" true
        (List.exists
           (fun s ->
             Astring.String.is_infix ~affix:"server/server.ml:3" s
             && Astring.String.is_infix ~affix:"Thread.delay" s)
           rendered);
      check Alcotest.bool "a poll outside the server is flagged" true
        (List.exists
           (fun s ->
             Astring.String.is_infix ~affix:"workload/poller.ml:2" s
             && Astring.String.is_infix ~affix:"Unix.sleep" s)
           rendered))

(* PR 7 satellite: the cost-based planner's greedy loop is itself an
   exponential-adjacent kernel — it must stay under the budget
   discipline, so its module is in the manifest and a tickless
   replacement is flagged. *)
let test_codebase_lint_optimizer () =
  check Alcotest.bool "join_order.ml is in the kernel manifest" true
    (List.mem "optimizer/join_order.ml" Lint_rules.kernel_modules);
  with_scratch_tree
    [ ("optimizer/join_order.ml", "let compile ps = Array.length ps\n") ]
    (fun root ->
      let violations =
        Lint_rules.check_tree ~manifest:[ "optimizer/join_order.ml" ] ~root ()
      in
      check Alcotest.int "tickless planner flagged" 1 (List.length violations);
      check Alcotest.bool "flagged with the module path" true
        (List.exists
           (fun v ->
             Astring.String.is_infix ~affix:"optimizer/join_order.ml"
               (Fmt.str "%a" Lint_rules.pp_violation v))
           violations))

(* PR 8 satellite: the compiled store's mapping layer is confined to
   lib/storage — a Unix.map_file or Bigarray access anywhere else means
   the byte layout leaked past the closure views. *)
let test_codebase_lint_mmap () =
  with_scratch_tree
    [
      (* seeded violation: a mapping outside lib/storage, line 2 *)
      ( "encoded/shortcut.ml",
        "let open_it fd = fd\n\
         let arr fd = Unix.map_file fd Bigarray.int Bigarray.c_layout false\n"
      );
      (* the storage library itself is allowed *)
      ( "storage/storage.ml",
        "let map fd k = Unix.map_file fd k Bigarray.c_layout false [| 1 |]\n"
      );
      (* string/comment mentions elsewhere do not count *)
      ( "rdf/dictionary.ml",
        "let doc = \"Bigarray.Array1\" (* no Unix.map_file here *)\n" );
    ]
    (fun root ->
      let violations = Lint_rules.check_tree ~manifest:[] ~root () in
      let rendered =
        List.map (Fmt.str "%a" Lint_rules.pp_violation) violations
      in
      (* the seeded file mentions both needles on line 2; both count *)
      check Alcotest.bool "seeded mapping violation reported" true
        (List.exists
           (fun s ->
             Astring.String.is_infix ~affix:"encoded/shortcut.ml:2" s
             && Astring.String.is_infix ~affix:"Unix.map_file" s)
           rendered);
      check Alcotest.bool "only the seeded file is flagged" true
        (List.for_all
           (fun s -> Astring.String.is_infix ~affix:"encoded/shortcut.ml" s)
           rendered))

(* PR 9 satellite: the segment-merge kernel behind delta overlays walks
   every composed delta entry at load — it is in the budget manifest, so
   a tickless replacement is flagged. *)
let test_codebase_lint_overlay () =
  check Alcotest.bool "overlay.ml is in the kernel manifest" true
    (List.mem "storage/overlay.ml" Lint_rules.kernel_modules);
  with_scratch_tree
    [ ("storage/overlay.ml", "let merge adds dels = (adds, dels)\n") ]
    (fun root ->
      let violations =
        Lint_rules.check_tree ~manifest:[ "storage/overlay.ml" ] ~root ()
      in
      check Alcotest.int "tickless merge kernel flagged" 1
        (List.length violations);
      check Alcotest.bool "flagged with the module path" true
        (List.exists
           (fun v ->
             Astring.String.is_infix ~affix:"storage/overlay.ml"
               (Fmt.str "%a" Lint_rules.pp_violation v))
           violations))

(* PR 10 satellite: a module that creates a Mutex advertises multi-domain
   use — every mutation of its top-level Hashtbls must then take the
   lock, or it is a data race. *)
let test_codebase_lint_domain_safety () =
  check Alcotest.bool "satisfiability.ml is in the kernel manifest" true
    (List.mem "analysis/satisfiability.ml" Lint_rules.kernel_modules);
  with_scratch_tree
    [
      (* seeded violation: unguarded replace on a top-level table, line 3 *)
      ( "encoded/cachey.ml",
        "let lock = Mutex.create ()\n\
         let table = Hashtbl.create 7\n\
         let put k v = Hashtbl.replace table k v\n" );
      (* the guarded form is clean (and exercises the type annotation) *)
      ( "core/guarded.ml",
        "let lock = Mutex.create ()\n\
         let table : (int, int) Hashtbl.t = Hashtbl.create 7\n\
         let put k v = Mutex.protect lock (fun () -> Hashtbl.replace table k v)\n"
      );
      (* no mutex, no multi-domain claim: a plain table is fine *)
      ( "rdf/plain.ml",
        "let table = Hashtbl.create 7\nlet put k v = Hashtbl.add table k v\n" );
    ]
    (fun root ->
      let violations = Lint_rules.check_tree ~manifest:[] ~root () in
      let rendered =
        List.map (Fmt.str "%a" Lint_rules.pp_violation) violations
      in
      check Alcotest.int "exactly the seeded violation" 1
        (List.length violations);
      check Alcotest.bool "reported with file:line and the table name" true
        (List.exists
           (fun s ->
             Astring.String.is_infix ~affix:"encoded/cachey.ml:3" s
             && Astring.String.is_infix ~affix:"Hashtbl.replace" s
             && Astring.String.is_infix ~affix:"table" s)
           rendered))

(* The store's probe kernels compare ids monomorphically: a bare
   [compare] there is flagged, a qualified or longer name is not, and
   the rest of the tree is not checked. *)
let test_codebase_lint_compare () =
  check Alcotest.bool "the range search is a probe kernel" true
    (List.mem "encoded/encoded_graph.ml" Lint_rules.probe_kernels);
  with_scratch_tree
    [
      (* seeded violations: line 2 here, lines 1 and 2 in the overlay *)
      ( "encoded/encoded_graph.ml",
        "let a = 1\nlet lt x y = compare x y < 0\n" );
      ( "storage/overlay.ml",
        "let s xs = Array.sort compare xs\nlet t = Stdlib.compare\n" );
      (* monomorphic and longer names, comments and strings are fine *)
      ( "encoded/encoded_hom.ml",
        "let c = Int.compare 1 2\nlet d = compare_key\n\
         let e = \"compare\" (* compare *)\n" );
      (* outside the probe kernels, compare is not this rule's business *)
      ("core/other.ml", "let s xs = List.sort compare xs\n");
    ]
    (fun root ->
      let violations = Lint_rules.check_tree ~manifest:[] ~root () in
      let rendered =
        List.map (Fmt.str "%a" Lint_rules.pp_violation) violations
      in
      check
        Alcotest.(list string)
        "exactly the seeded compares, with file:line"
        [ "encoded/encoded_graph.ml:2"; "storage/overlay.ml:1";
          "storage/overlay.ml:2" ]
        (List.map
           (fun v -> Printf.sprintf "%s:%d" v.Lint_rules.path v.Lint_rules.line)
           violations);
      check Alcotest.bool "the message names the fix" true
        (List.for_all
           (fun s -> Astring.String.is_infix ~affix:"Int.compare" s)
           rendered))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [
      ( "designedness",
        [
          verdict_agreement_random;
          verdict_agreement_wd;
          weakly_is_not_well;
          Alcotest.test_case "translate carries the witness" `Quick
            test_translate_witness;
        ] );
      ( "json",
        [
          json_roundtrip;
          Alcotest.test_case "report JSON parses and decodes" `Quick
            test_report_json;
        ] );
      ( "spans",
        [
          Alcotest.test_case "parser spans" `Quick test_spans;
          Alcotest.test_case "pattern-forest node spans" `Quick test_node_spans;
        ] );
      ( "lints",
        [
          Alcotest.test_case "every rule fires on its minimal query" `Quick
            test_lint_triggers;
          Alcotest.test_case "unsatisfiable-triple is store-independent"
            `Quick test_unsatisfiable_triple;
        ] );
      ( "satisfiability",
        [
          Alcotest.test_case "hand-written verdicts" `Quick
            test_satisfiability_cases;
          satisfiability_differential;
        ] );
      ( "prune",
        [
          Alcotest.test_case "each rewrite rule fires and is exact" `Quick
            test_prune_rules;
          prune_soundness;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "equivalent spellings share a key" `Quick
            test_canonical_keys;
          canonical_rename_back;
          canonical_key_stable_under_renaming;
        ] );
      ( "width",
        [
          width_bounds_sound;
          Alcotest.test_case "Engine.plan consumes hints" `Quick
            test_plan_consumes_hints;
        ] );
      ( "codebase-lint",
        [
          Alcotest.test_case "strip blanks comments and strings" `Quick
            test_strip;
          Alcotest.test_case "clean scratch tree passes" `Quick
            test_codebase_lint_clean;
          Alcotest.test_case "seeded violations fail with file:line" `Quick
            test_codebase_lint_seeded;
          Alcotest.test_case "raw I/O confined to lib/server/io.ml" `Quick
            test_codebase_lint_raw_io;
          Alcotest.test_case "sleep-polling flagged past the allowance"
            `Quick test_codebase_lint_sleep_poll;
          Alcotest.test_case "optimizer planner is budget-disciplined" `Quick
            test_codebase_lint_optimizer;
          Alcotest.test_case "mapped-store bytes confined to lib/storage"
            `Quick test_codebase_lint_mmap;
          Alcotest.test_case "segment-merge kernel is budget-disciplined"
            `Quick test_codebase_lint_overlay;
          Alcotest.test_case "mutexed modules lock their tables" `Quick
            test_codebase_lint_domain_safety;
          Alcotest.test_case "probe kernels compare ids monomorphically"
            `Quick test_codebase_lint_compare;
        ] );
    ]
