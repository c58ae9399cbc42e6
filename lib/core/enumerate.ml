module Budget = Resource.Budget
module Encoded_hom = Encoded.Encoded_hom

type maximality = Plan_cache.maximality

type optimize = [ `Off | `On ]

(* The lattice walk: every partial homomorphism is a flat int array over
   the tree's shared variable table ({!Plan_cache.node_source}), so the
   parent's solution array IS the child join's [pre] (no map union, no
   re-encoding). Both maximality tests run on those ids too, and terms
   only reappear at the solution boundary, for maximal candidates. *)
let solutions_tree ~budget ~maximality ~cache ~pool ~optimize tree graph =
  Budget.with_phase budget "enumerate" @@ fun () ->
  let results = ref Sparql.Mapping.Set.empty in
  let source_of n = Plan_cache.node_source cache graph tree n in
  let order_of n =
    match optimize with
    | `Off -> None
    | `On ->
        Some (Plan_cache.node_decision ~budget cache graph tree n).order
  in
  let root_source = source_of Wdpt.Pattern_tree.root in
  (* Compile every node's source and decision up front when optimizing
     (the sequential path pays the same cost on first visit anyway).
     Worker domains never touch the plan cache's tables: child tests are
     staged on this domain and only run on the workers. *)
  (if optimize = `On then
     List.iter
       (fun n ->
         ignore (source_of n);
         ignore (order_of n))
       (Wdpt.Pattern_tree.nodes tree));
  (* Stage each child's test once per candidate batch. *)
  let stage subtree =
    List.map
      (fun n ->
        Plan_cache.stage_child_test ?order:(order_of n) cache graph maximality
          tree n)
      (Wdpt.Subtree.children subtree)
  in
  (* decoding any node's source decodes the whole shared array *)
  let decode h = Encoded_hom.decode root_source h in
  let add_solution mu =
    if not (Sparql.Mapping.Set.mem mu !results) then Budget.solution budget;
    results := Sparql.Mapping.Set.add mu !results
  in
  let maximal tests h =
    if List.exists (fun test -> test h) tests then None
    else Sparql.Mapping.of_assignment (decode h)
  in
  (* Parallel candidate checking: the maximality test of each candidate
     in a batch is independent, so they fan out across the pool. Each
     worker slot runs the same exact-first tests as the sequential path
     on its own {!Plan_cache.worker} (private verdict memos and
     counters; the compiled games are shared) and its own
     budget view (shared fuel pool / cancellation flag). The caller
     merges results in input order, so [add_solution] — dedup, solution
     cap — sees exactly the sequential sequence and answers are
     identical to [domains:1]. *)
  let par =
    match pool with
    | Some pool when Parallel.Pool.size pool > 1 ->
        let n = Parallel.Pool.size pool in
        Some
          ( pool,
            Budget.fork budget n,
            Array.init n (fun _ -> Plan_cache.worker cache graph) )
    | _ -> None
  in
  let visit_batch =
    match par with
    | Some (pool, wbudgets, workers) ->
        fun subtree homs ->
          let staged = stage subtree in
          Parallel.Pool.fold_ordered pool
            ~init:(fun slot ->
              List.map
                (Plan_cache.run ~budget:wbudgets.(slot) ~worker:workers.(slot))
                staged)
            ~f:maximal
            ~merge:(fun () -> Option.iter add_solution)
            () homs
    | None ->
        fun subtree homs ->
          let tests = List.map (Plan_cache.run ~budget) (stage subtree) in
          List.iter (fun h -> Option.iter add_solution (maximal tests h)) homs
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
  | Some (_, wbudgets, workers) ->
      (* also on exception paths: the budget views' spending folds back
         into the caller's budget and the workers' counters into the
         shared cache *)
      Fun.protect
        ~finally:(fun () ->
          Budget.join budget wbudgets;
          Array.iter (Plan_cache.absorb_worker cache tree) workers)
        run

let solutions ?(budget = Budget.unlimited) ?(maximality = `Hom) ?cache
    ?(domains = 1) ?(optimize = `Off) forest graph =
  (* One plan cache across the whole forest: the trees share the
     store's encoding and unary candidate domains. *)
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
