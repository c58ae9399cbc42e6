module Budget = Resource.Budget

type algorithm =
  | Naive
  | Pebble of int

type width_source =
  | Exact
  | From_hint of { exact : bool }
  | Fallback_upper_bound of { phase : string; spent : int }

type hints = {
  dw_exact : int option;
  dw_upper : int option;
}

let no_hints = { dw_exact = None; dw_upper = None }

type plan = {
  pattern : Sparql.Algebra.t;
  forest : Wdpt.Pattern_forest.t;
  domination_width : int;
  width_source : width_source;
  algorithm : algorithm;
  optimize : bool;
  cache : Plan_cache.t;
}

let plan ?(budget = Budget.unlimited) ?(hints = no_hints) ?force
    ?(optimize = true) ?plan_capacity pattern =
  let forest = Wdpt.Pattern_forest.of_algebra pattern in
  let domination_width, width_source =
    match hints.dw_exact with
    | Some dw ->
        (* the caller measured the exact width already *)
        (dw, From_hint { exact = true })
    | None -> (
        match Domination_width.of_forest ~budget forest with
        | dw -> (dw, Exact)
        | exception Budget.Exhausted { phase; spent } -> (
            (* Exact dw ran out of budget: degrade to a polynomial-time
               upper bound. dw(F) never exceeds it, so running the pebble
               game at this k stays exact — just possibly slower than at
               the true dw. A caller's hinted bound takes precedence. *)
            match hints.dw_upper with
            | Some ub -> (ub, From_hint { exact = false })
            | None ->
                ( Domination_width.cheap_upper_bound forest,
                  Fallback_upper_bound { phase; spent } )))
  in
  let algorithm =
    match force with Some a -> a | None -> Pebble domination_width
  in
  {
    pattern;
    forest;
    domination_width;
    width_source;
    algorithm;
    optimize;
    cache = Plan_cache.create ?plan_capacity ();
  }

let check ?budget plan graph mu =
  match plan.algorithm with
  | Naive -> Wdpt.Semantics.check ?budget plan.forest graph mu
  | Pebble k ->
      Pebble_eval.check ?budget ~cache:plan.cache ~k plan.forest graph mu

let maximality plan =
  match plan.algorithm with Naive -> `Hom | Pebble k -> `Pebble k

let optimize plan = if plan.optimize then `On else `Off

let solutions_stats ?budget plan graph =
  let answers =
    Enumerate.solutions ?budget ~maximality:(maximality plan)
      ~optimize:(optimize plan) ~cache:plan.cache plan.forest graph
  in
  (answers, Some (Plan_cache.stats plan.cache))

let solutions ?budget plan graph = fst (solutions_stats ?budget plan graph)

let count ?budget plan graph =
  Enumerate.count ?budget ~maximality:(maximality plan)
    ~optimize:(optimize plan) ~cache:plan.cache plan.forest graph

let answer_rows ?budget plan graph =
  let dict =
    lazy
      (Encoded.Encoded_graph.dictionary (Plan_cache.encoded plan.cache graph))
  in
  let iri id =
    match Rdf.Dictionary.term_of (Lazy.force dict) id with
    | Rdf.Term.Iri i -> i
    | Rdf.Term.Var _ ->
        (* a graph is ground, so only a damaged store can answer one *)
        Wdsparql_error.fail
          (Wdsparql_error.Internal
             "Engine.answer_rows: a variable in the store")
  in
  Row_writer.of_iter (Enumerate.variables plan.forest) iri
    (Enumerate.iter_rows ?budget ~maximality:(maximality plan)
       ~optimize:(optimize plan) ~cache:plan.cache plan.forest graph)

let pp_width_source ppf = function
  | Exact -> Fmt.string ppf "exact"
  | From_hint { exact = true } ->
      Fmt.string ppf "exact (from static analyzer hint, recomputation skipped)"
  | From_hint { exact = false } ->
      Fmt.string ppf
        "upper bound (static analyzer hint; exact computation exhausted its \
         budget)"
  | Fallback_upper_bound { phase; spent } ->
      Fmt.pf ppf
        "upper bound (exact computation exhausted its budget in phase %s \
         after %d steps; degraded to the polynomial treewidth heuristic)"
        phase spent

let pp_plan ppf plan =
  Fmt.pf ppf
    "@[<v>query: %d triple pattern(s), %d tree(s)@ dw: %d (%a)@ algorithm: \
     %a@ optimizer: %s@]"
    (Sparql.Algebra.size plan.pattern)
    (List.length plan.forest) plan.domination_width pp_width_source
    plan.width_source
    (fun ppf -> function
      | Naive -> Fmt.string ppf "naive (exact homomorphism tests)"
      | Pebble k -> Fmt.pf ppf "pebble with k = %d (%d pebbles)" k (k + 1))
    plan.algorithm
    (if plan.optimize then "on (cost-based join orders, adaptive fail-first)"
     else "off (fail-first in textual pattern order)")
