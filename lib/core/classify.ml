type regime =
  | Ptime of int
  | Intractable_frontier of int
  | Not_well_designed
  | Outside_core_fragment
  | Width_unknown of int

type t = {
  well_designed : bool;
  union_free : bool;
  trees : int;
  nodes : int;
  domination_width : int option;
  branch_treewidth : int option;
  local_width : int option;
  regime : regime;
}

let classify ?(budget = Resource.Budget.unlimited) ?(frontier = 3) p =
  let union_free = Sparql.Well_designed.is_union_free p in
  if not (Sparql.Algebra.is_core p) then
    {
      well_designed = Sparql.Well_designed.is_well_designed p;
      union_free;
      trees = 0;
      nodes = 0;
      domination_width = None;
      branch_treewidth = None;
      local_width = None;
      regime = Outside_core_fragment;
    }
  else if not (Sparql.Well_designed.is_well_designed p) then
    {
      well_designed = false;
      union_free;
      trees = 0;
      nodes = 0;
      domination_width = None;
      branch_treewidth = None;
      local_width = None;
      regime = Not_well_designed;
    }
  else begin
    let forest = Wdpt.Pattern_forest.of_algebra p in
    (* Each width measure is exponential to compute exactly; under a
       budget, a measure that runs out simply reports [None] rather than
       aborting the whole classification. *)
    let dw =
      Wdsparql_error.attempt (fun () -> Domination_width.of_forest ~budget forest)
    in
    (* on one tree [of_forest] is bw already (Proposition 5) *)
    let bw = match forest with [ _ ] -> dw | _ -> None in
    let lt =
      Wdsparql_error.attempt (fun () ->
          Local_tractability.width_of_forest ~budget forest)
    in
    let regime =
      match dw with
      | Some dw -> if dw <= frontier then Ptime dw else Intractable_frontier dw
      | None -> Width_unknown (Domination_width.cheap_upper_bound forest)
    in
    {
      well_designed = true;
      union_free;
      trees = List.length forest;
      nodes = Wdpt.Pattern_forest.size forest;
      domination_width = dw;
      branch_treewidth = bw;
      local_width = lt;
      regime;
    }
  end

let pp ppf t =
  let opt ppf = function None -> Fmt.string ppf "-" | Some k -> Fmt.int ppf k in
  Fmt.pf ppf
    "@[<v>well-designed: %b@ union-free: %b@ wdpf: %d tree(s), %d node(s)@ \
     domination width: %a@ branch treewidth: %a@ local width: %a@ regime: %a@]"
    t.well_designed t.union_free t.trees t.nodes opt t.domination_width opt
    t.branch_treewidth opt t.local_width
    (fun ppf -> function
      | Ptime k ->
          Fmt.pf ppf "PTIME (Theorem 1 with %d+1 pebbles)" k
      | Intractable_frontier k ->
          Fmt.pf ppf
            "domination width %d — beyond the tractability frontier for \
             classes of unbounded width (Theorem 2)"
            k
      | Not_well_designed -> Fmt.string ppf "not well-designed (coNP-hard territory)"
      | Outside_core_fragment ->
          Fmt.string ppf
            "uses FILTER/SELECT — outside the core fragment; the dichotomy \
             does not apply (Section 5)"
      | Width_unknown ub ->
          Fmt.pf ppf
            "exact width computation exhausted its budget; dw <= %d by the \
             polynomial treewidth bound"
            ub)
    t.regime
