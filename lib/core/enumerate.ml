module Budget = Resource.Budget
module Encoded_hom = Encoded.Encoded_hom

type maximality = [ `Hom | `Pebble of int ]

type optimize = [ `Off | `On ]

(* The lattice walk: every partial homomorphism is a flat int array over
   the tree's shared variable table ({!Plan_cache.node_source}), so the
   parent's solution array IS the child join's [pre] (no map union, no
   re-encoding). Both maximality tests run on those ids too, and terms
   only reappear at the solution boundary, for maximal candidates. *)
let solutions_tree ~budget ~maximality ~cache ~pool ~optimize tree graph =
  Budget.with_phase budget "enumerate" @@ fun () ->
  let results = ref Sparql.Mapping.Set.empty in
  let vars = Plan_cache.variables cache graph tree in
  let pebble = Plan_cache.pebble cache graph in
  let source_of n = Plan_cache.node_source cache graph tree n in
  let decision_of n = Plan_cache.node_decision ~budget cache graph tree n in
  let order_of n =
    match optimize with
    | `Off -> None
    | `On -> Some (decision_of n).Optimizer.Join_order.order
  in
  (* The optimizer's pebble-vs-naive verdict: when a child's estimated
     extension count is tiny, an exact backtracking existence check on
     ids beats staging the pebble game. Both tests are exact here (the
     engine always plans k >= dw), so this is a cost choice only. *)
  let choose_naive n =
    optimize = `On && (decision_of n).Optimizer.Join_order.maximality = `Naive
  in
  (* Stage the id-level child test once per candidate batch: the
     (subtree, child) games and slot tables are fixed across the whole
     batch, so only the per-assignment work stays in the loop. *)
  let child_test subtree n =
    match maximality with
    | `Pebble k when not (choose_naive n) ->
        Pebble_cache.stage_child_test_ids pebble ~budget ~k tree ~vars subtree
          n
    | `Pebble _ | `Hom ->
        Plan_cache.naive_child_test ~budget ?order:(order_of n) cache graph
          tree n
  in
  let root_source = source_of Wdpt.Pattern_tree.root in
  (* Compile every node's source and decision up front when optimizing:
     worker domains must never touch the plan cache's tables (they are
     plain Hashtbls), and the sequential path pays the same cost on first
     visit anyway. *)
  (if optimize = `On then
     List.iter
       (fun n ->
         ignore (source_of n);
         ignore (decision_of n))
       (Wdpt.Pattern_tree.nodes tree));
  (* decoding any node's source decodes the whole shared array *)
  let decode h = Encoded_hom.decode root_source h in
  let add_solution mu =
    if not (Sparql.Mapping.Set.mem mu !results) then Budget.solution budget;
    results := Sparql.Mapping.Set.add mu !results
  in
  let visit subtree =
    let tests = List.map (child_test subtree) (Wdpt.Subtree.children subtree) in
    fun h ->
      if not (List.exists (fun test -> test h) tests) then
        Option.iter add_solution (Sparql.Mapping.of_assignment (decode h))
  in
  (* Parallel candidate checking: the maximality test of each candidate
     in a batch is independent, so they fan out across the pool. Each
     worker slot gets its own pebble-cache view (private verdict memo
     and slot tables over the shared compiled games) and its own budget
     view (shared fuel pool / cancellation flag), both staged lazily
     per batch on the domain that owns the slot. The caller merges
     results in input order, so [add_solution] — dedup, solution cap —
     sees exactly the sequential sequence and answers are identical to
     [domains:1]. Only [`Pebble] fans out: the naive verdict memo is a
     plain shared Hashtbl. *)
  let par =
    match (pool, maximality) with
    | Some pool, `Pebble k when Parallel.Pool.size pool > 1 ->
        Some (pool, Budget.fork budget (Parallel.Pool.size pool), k)
    | _ -> None
  in
  let visit_batch =
    match par with
    | Some (pool, wbudgets, k) ->
        fun subtree homs ->
          (* Workers always stage the pebble test, even for nodes the
             optimizer would run naively: the pool's per-worker pebble
             views already amortize the staging cost the naive choice
             exists to avoid. Both tests are exact, so answers are
             unchanged. *)
          let stage slot =
            let budget = wbudgets.(slot) in
            let view = Pebble_cache.worker_view_for pebble slot in
            List.map
              (fun n ->
                Pebble_cache.stage_child_test_ids view ~budget ~k tree ~vars
                  subtree n)
              (Wdpt.Subtree.children subtree)
          in
          Parallel.Pool.fold_ordered pool ~init:stage
            ~f:(fun tests h ->
              if List.exists (fun test -> test h) tests then None
              else Sparql.Mapping.of_assignment (decode h))
            ~merge:(fun () -> Option.iter add_solution)
            () homs
    | None -> fun subtree homs -> List.iter (visit subtree) homs
  in
  (* [last]: the node id added most recently — children are only added
     in increasing id order so each subtree is reached exactly once, via
     its sorted member sequence. *)
  let rec go subtree homs last =
    visit_batch subtree homs;
    List.iter
      (fun n ->
        if n > last then begin
          Budget.tick budget;
          let child_source = source_of n in
          let order = order_of n in
          let homs' =
            List.concat_map
              (fun h ->
                Encoded_hom.fold ~budget ?order ~pre:h child_source ~init:[]
                  ~f:(fun acc extension ->
                    (Array.copy extension :: acc, `Continue)))
              homs
          in
          if homs' <> [] then go (Wdpt.Subtree.add_child subtree n) homs' n
        end)
      (Wdpt.Subtree.children subtree)
  in
  let run () =
    let root_homs =
      Encoded_hom.fold ~budget
        ?order:(order_of Wdpt.Pattern_tree.root)
        root_source ~init:[]
        ~f:(fun acc h -> (Array.copy h :: acc, `Continue))
    in
    if root_homs <> [] then
      go (Wdpt.Subtree.root_only tree) root_homs Wdpt.Pattern_tree.root;
    !results
  in
  match par with
  | None -> run ()
  | Some (_, wbudgets, _) ->
      (* also on exception paths: the budget views' spending folds back
         into the caller's budget and the worker views' cache counters
         into the shared cache *)
      Fun.protect
        ~finally:(fun () ->
          Budget.join budget wbudgets;
          Pebble_cache.absorb_views pebble)
        run

let solutions ?(budget = Budget.unlimited) ?(maximality = `Hom) ?cache
    ?(domains = 1) ?(optimize = `Off) forest graph =
  (* One plan cache (and hence one pebble cache) across the whole forest:
     trees share the graph and often the same child patterns, so games
     and verdicts carry over. *)
  let cache = match cache with Some c -> c | None -> Plan_cache.create () in
  let run pool =
    List.fold_left
      (fun acc tree ->
        Sparql.Mapping.Set.union acc
          (solutions_tree ~budget ~maximality ~cache ~pool ~optimize tree
             graph))
      Sparql.Mapping.Set.empty forest
  in
  if domains <= 1 || maximality = `Hom then run None
  else
    (* one borrowed pool across the whole forest, so domains spawn (at
       most) once per evaluation, not once per tree *)
    Parallel.Pool.borrow ~domains (fun pool -> run (Some pool))

let count ?budget ?maximality ?cache ?domains ?optimize forest graph =
  Sparql.Mapping.Set.cardinal
    (solutions ?budget ?maximality ?cache ?domains ?optimize forest graph)
