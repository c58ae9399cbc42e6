open Rdf
module Budget = Resource.Budget

let cache_for graph = function
  | None -> Pebble_cache.create graph
  | Some cache ->
      if Graph.epoch (Pebble_cache.graph cache) <> Graph.epoch graph then
        invalid_arg "Pebble_eval: the cache was built for another graph";
      cache

let check ?(budget = Budget.unlimited) ?cache ~k forest graph mu =
  if k < 1 then invalid_arg "Pebble_eval.check: k must be at least 1";
  let cache = cache_for graph cache in
  Budget.with_phase budget "pebble-eval" @@ fun () ->
  List.exists
    (fun tree ->
      match Wdpt.Subtree.matching tree graph mu with
      | None -> false
      | Some subtree ->
          not
            (List.exists
               (Pebble_cache.child_test cache ~budget ~k tree mu subtree)
               (Wdpt.Subtree.children subtree)))
    forest

let check_pattern ?budget ?cache ~k p graph mu =
  check ?budget ?cache ~k (Wdpt.Pattern_forest.of_algebra p) graph mu

let check_auto ?budget ?cache forest graph mu =
  check ?budget ?cache
    ~k:(Domination_width.of_forest ?budget forest)
    forest graph mu

let solutions ?(budget = Budget.unlimited) ?cache ~k forest graph =
  let cache = cache_for graph cache in
  Budget.with_phase budget "pebble-eval" @@ fun () ->
  let enc = Encoded.Encoded_graph.of_graph_cached graph in
  List.fold_left
    (fun acc tree ->
      List.fold_left
        (fun acc subtree ->
          let homs =
            Encoded.Encoded_hom.all ~budget
              (Encoded.Encoded_hom.compile (Wdpt.Subtree.pat subtree) enc)
          in
          List.fold_left
            (fun acc h ->
              match Sparql.Mapping.of_assignment h with
              | None -> acc
              | Some mu ->
                  if
                    (not (Sparql.Mapping.Set.mem mu acc))
                    && check ~budget ~cache ~k forest graph mu
                  then begin
                    Budget.solution budget;
                    Sparql.Mapping.Set.add mu acc
                  end
                  else acc)
            acc homs)
        acc
        (Wdpt.Subtree.all ~budget tree))
    Sparql.Mapping.Set.empty forest
