module Budget = Resource.Budget

let check ?(budget = Budget.unlimited) ?cache ~k forest graph mu =
  if k < 1 then invalid_arg "Pebble_eval.check: k must be at least 1";
  let cache = match cache with Some c -> c | None -> Plan_cache.create () in
  Budget.with_phase budget "pebble-eval" @@ fun () ->
  List.exists
    (fun tree ->
      match Wdpt.Subtree.matching tree graph mu with
      | None -> false
      | Some subtree ->
          (* µ(pat T^µ) ⊆ G holds here: the anchor half of every child
             test, so only the per-node games remain *)
          let assignment =
            Encoded.Encoded_hom.encode_pre
              (Plan_cache.node_source cache graph tree Wdpt.Pattern_tree.root)
              (Sparql.Mapping.to_assignment mu)
          in
          not
            (List.exists
               (fun n ->
                 Plan_cache.run_pebble ~budget
                   (Plan_cache.pebble_test cache graph ~k tree n)
                   assignment)
               (Wdpt.Subtree.children subtree)))
    forest

let check_pattern ?budget ?cache ~k p graph mu =
  check ?budget ?cache ~k (Wdpt.Pattern_forest.of_algebra p) graph mu

let check_auto ?budget ?cache forest graph mu =
  check ?budget ?cache
    ~k:(Domination_width.of_forest ?budget forest)
    forest graph mu

let solutions ?(budget = Budget.unlimited) ?cache ~k forest graph =
  let cache = match cache with Some c -> c | None -> Plan_cache.create () in
  Budget.with_phase budget "pebble-eval" @@ fun () ->
  let enc = Plan_cache.encoded cache graph in
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
