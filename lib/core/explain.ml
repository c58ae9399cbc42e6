open Rdf

type triple_plan = {
  triple : Triple.t;
  estimated : float;
  actual : int;
}

type node_plan = {
  node : Wdpt.Pattern_tree.node;
  depth : int;
  new_vars : Variable.t list;
  triples : triple_plan list;
  decision : Optimizer.Join_order.decision option;
  maximality : maximality option;
}

and maximality = {
  exact_cap : int option;
  joins : Plan_cache.joins;
}

type tree_plan = node_plan list

type t = {
  classification : Classify.t;
  plan : Engine.plan;
  trees : tree_plan list;
  graph_triples : int;
}

(* Exact matches of the pattern's constant positions against the encoded
   store — the ground truth the cost model's base estimate approximates.
   A constant the dictionary has never seen matches nothing. *)
let actual_count enc triple =
  let dict = Encoded.Encoded_graph.dictionary enc in
  let pos t =
    match t with
    | Term.Var _ -> Ok Encoded.Encoded_graph.unbound
    | t -> (
        match Dictionary.find dict t with
        | Some id -> Ok id
        | None -> Error ())
  in
  match
    (pos triple.Triple.s, pos triple.Triple.p, pos triple.Triple.o)
  with
  | Ok s, Ok p, Ok o -> Encoded.Encoded_graph.match_count enc s p o
  | _ -> 0

(* {!Rdf.Stats.estimated_matches}, read off the encoded store's
   memoized predicate statistics: the same numbers without a term-level
   pass over the graph (which would force a mapped store's deferred term
   index). *)
let estimated_matches enc triple =
  let module E = Encoded.Encoded_graph in
  let predicate iri =
    match Dictionary.find (E.dictionary enc) (Term.Iri iri) with
    | None -> None
    | Some id ->
        let s = E.predicate_stats enc id in
        if s.E.triples = 0 then None
        else
          Some
            {
              Stats.triples = s.E.triples;
              distinct_subjects = s.E.distinct_subjects;
              distinct_objects = s.E.distinct_objects;
            }
  in
  let total = E.cardinal enc in
  Stats.selectivity_of ~total ~subjects:(E.distinct_subjects enc)
    ~objects:(E.distinct_objects enc) ~predicate triple
  *. float_of_int total

let plan_tree enc decision_of maximality_of tree =
  let rec walk node depth =
    let parent_vars =
      match Wdpt.Pattern_tree.parent tree node with
      | None -> Variable.Set.empty
      | Some p -> Wdpt.Pattern_tree.vars_of_node tree p
    in
    let new_vars =
      Variable.Set.elements
        (Variable.Set.diff (Wdpt.Pattern_tree.vars_of_node tree node) parent_vars)
    in
    let base =
      Tgraphs.Tgraph.triples (Wdpt.Pattern_tree.pat tree node)
      |> List.map (fun triple ->
             {
               triple;
               estimated = estimated_matches enc triple;
               actual = actual_count enc triple;
             })
    in
    let decision = decision_of tree node in
    let triples =
      match decision with
      | None ->
          List.sort (fun a b -> compare a.estimated b.estimated) base
      | Some d ->
          (* the optimizer's compiled order: position j is the j-th join
             step, aligned with [d.est_cards.(j)] *)
          let arr = Array.of_list base in
          Array.to_list
            (Array.map (fun i -> arr.(i)) d.Optimizer.Join_order.order)
    in
    {
      node;
      depth;
      new_vars;
      triples;
      decision;
      maximality = (if depth = 0 then None else Some (maximality_of tree node));
    }
    :: List.concat_map
         (fun c -> walk c (depth + 1))
         (Wdpt.Pattern_tree.children tree node)
  in
  walk Wdpt.Pattern_tree.root 0

let trees ?budget plan graph =
  let cache = plan.Engine.cache in
  let enc = Plan_cache.encoded cache graph in
  let decision_of tree n =
    if plan.Engine.optimize then
      Some (Plan_cache.node_decision ?budget cache graph tree n)
    else None
  in
  let maximality_of tree n =
    {
      exact_cap =
        (match plan.Engine.algorithm with
        | Engine.Naive -> None
        | Engine.Pebble k -> Some (Plan_cache.exact_cap cache graph tree n k));
      joins = Plan_cache.node_joins cache graph tree n;
    }
  in
  List.map (plan_tree enc decision_of maximality_of) plan.Engine.forest

let explain ?budget ?optimize pattern graph =
  let plan = Engine.plan ?budget ?optimize pattern in
  {
    classification = Classify.classify ?budget pattern;
    plan;
    trees = trees ?budget plan graph;
    graph_triples =
      Encoded.Encoded_graph.cardinal (Plan_cache.encoded plan.Engine.cache graph);
  }

let pp_maximality ppf m =
  (match m.exact_cap with
  | None -> Fmt.string ppf "maximality test: exact"
  | Some cap ->
      Fmt.pf ppf "maximality test: exact first, pebble past %d ticks" cap);
  if m.joins.Plan_cache.runs > 0 then
    Fmt.pf ppf "; joins %a" Plan_cache.pp_joins m.joins

let pp_trees ppf trees =
  List.iteri
    (fun i tree_plan ->
      Fmt.pf ppf "@.tree %d:@." (i + 1);
      List.iter
        (fun np ->
          let indent = String.make (2 * np.depth) ' ' in
          let vars_note =
            match np.new_vars with
            | [] -> ""
            | vs ->
                Printf.sprintf " (introduces %s)"
                  (String.concat ", "
                     (List.map (fun v -> "?" ^ Variable.to_string v) vs))
          in
          let notes =
            (match np.decision with
            | None -> []
            | Some d ->
                [
                  Fmt.str "join: cost-based order, ~%.1f candidate(s)"
                    d.Optimizer.Join_order.est_candidates;
                ])
            @ (match np.maximality with
              | None -> []
              | Some m -> [ Fmt.str "%a" pp_maximality m ])
          in
          Fmt.pf ppf "%s%snode %d%s%s@." indent
            (if np.depth = 0 then "" else "OPTIONAL ")
            np.node vars_note
            (match notes with
            | [] -> ""
            | _ -> " [" ^ String.concat "; " notes ^ "]");
          List.iteri
            (fun j tp ->
              match np.decision with
              | Some d ->
                  Fmt.pf ppf "%s  %a  est ~%.1f, actual %d@." indent
                    Triple.pp tp.triple
                    d.Optimizer.Join_order.est_cards.(j)
                    tp.actual
              | None ->
                  Fmt.pf ppf "%s  %a  ~%.1f matches, actual %d@." indent
                    Triple.pp tp.triple tp.estimated tp.actual)
            np.triples)
        tree_plan)
    trees

let pp ppf t =
  Fmt.pf ppf "%a@.@.%a@.@." Classify.pp t.classification Engine.pp_plan t.plan;
  Fmt.pf ppf "data: %d triples@." t.graph_triples;
  pp_trees ppf t.trees
