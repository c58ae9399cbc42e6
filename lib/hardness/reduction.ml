open Rdf
open Tgraphs

type instance = {
  forest : Wdpt.Pattern_forest.t;
  graph : Graph.t;
  mu : Sparql.Mapping.t;
  stats : Grohe.stats;
}

let build ~k ~h =
  let cols = k * (k - 1) / 2 in
  let tree = Workload.Query_families.grid_query ~rows:k ~cols in
  let forest = [ tree ] in
  let subtree = Wdpt.Subtree.root_only tree in
  match Wdpt.Children_assignment.gtg forest subtree with
  | [ s ] -> (
      match Grohe.construct ~k ~h s with
      | Error _ as e -> e
      | Ok (b, stats) ->
          let graph = Tgraph.freeze (Gtgraph.s b) in
          let mu =
            Variable.Set.fold
              (fun v acc ->
                match Tgraph.freeze_term (Term.Var v) with
                | Term.Iri i -> Sparql.Mapping.add v i acc
                | Term.Var _ -> assert false)
              (Wdpt.Subtree.vars subtree) Sparql.Mapping.empty
          in
          Ok { forest; graph; mu; stats })
  | gtg ->
      Error
        (Printf.sprintf "expected a single generalised t-graph, got %d"
           (List.length gtg))

let decide ~k ~h =
  match build ~k ~h with
  | Error _ as e -> e
  | Ok { forest; graph; mu; _ } ->
      Ok (not (Wdpt.Semantics.check forest graph mu))
