open Rdf
module Budget = Resource.Budget

type stats = {
  pebble : Pebble_cache.stats;
  hom_sources : int;
  invalidations : int;
  plan_evictions : int;
  live_entries : int;
  decision_hits : int;
  decision_misses : int;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>%a@ plan cache: %d hom sources compiled, %d invalidations, %d \
     evictions, %d live entries, %d/%d join-order decisions reused@]"
    Pebble_cache.pp_stats s.pebble s.hom_sources s.invalidations
    s.plan_evictions s.live_entries s.decision_hits
    (s.decision_hits + s.decision_misses)

(* Per-tree compiled join artefacts. Every node pattern of a tree is
   compiled against ONE shared variable table covering vars(T), so the
   enumerator's assignments are flat int arrays over that table: a
   parent's solution doubles as the child join's [pre] with no
   re-encoding, and the union of parent and extension bindings is
   implicit in the array. *)
type tree_sources = {
  tvars : Variable.t array;
  node_sources : (Wdpt.Pattern_tree.node, Encoded.Encoded_hom.source) Hashtbl.t;
  node_decisions :
    (Wdpt.Pattern_tree.node, Optimizer.Join_order.decision) Hashtbl.t;
      (* cost-based plans, computed against this entry's store — epoch
         keyed like everything else here, so the server's cross-connection
         cache serves optimized plans until the graph changes *)
  naive_verdicts : (Wdpt.Pattern_tree.node, (int list, bool) Hashtbl.t) Hashtbl.t;
      (* per-node existence-verdict memo for the naive maximality test:
         the verdict of "does a child extension exist?" depends on the
         candidate only through the child's own variable slots, so it is
         keyed on those ids. Shared across evaluations of the same store
         epoch — the naive path's counterpart of Pebble_cache's verdict
         memo, without which warm naive re-evaluations would recompute
         every exists-join the pebble path answers with a hash hit. *)
}

(* Cap on each per-node naive-verdict table: past this, new verdicts are
   computed but not remembered. Crude compared to the pebble cache's LRU,
   but the naive route is only ever chosen for nodes the optimizer
   estimates a small candidate count for, so the cap is rarely felt. *)
let naive_verdict_limit = 1 lsl 16

type entry = {
  epoch : int;
  enc : Encoded.Encoded_graph.t;
  pebble : Pebble_cache.t;
  mutable trees : (Wdpt.Pattern_tree.t * tree_sources) list;
      (* keyed on physical identity, like Pebble_cache's tree stamps:
         plans hold their forest alive, so the same tree value flows
         through every evaluation of a plan *)
}

let default_plan_capacity = 4

type t = {
  verdict_capacity : int option;
  plan_capacity : int;
  mutable entries : entry list;
      (* most-recently-used first, keyed by store epoch; at most
         [plan_capacity] long, so round-robin evaluation over a few
         stores stops rebuilding everything on every switch *)
  mutable hom_sources : int;
  mutable invalidations : int;
  mutable plan_evictions : int;
  mutable retired : Pebble_cache.stats;
      (* accumulated stats of pebble caches dropped by eviction, so
         [stats] reports the plan's whole history *)
  decisions : Optimizer.Decision_cache.t;
      (* join-order memo shared across entries and trees: epoch is part
         of its key, so an evicted store's decisions age out by FIFO
         instead of being flushed *)
}

let zero_pebble_stats =
  {
    Pebble_cache.hits = 0;
    misses = 0;
    compiled = 0;
    families = 0;
    evictions = 0;
    unary_hits = 0;
    unary_misses = 0;
  }

let add_pebble_stats (a : Pebble_cache.stats) (b : Pebble_cache.stats) =
  {
    Pebble_cache.hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    compiled = a.compiled + b.compiled;
    families = a.families + b.families;
    evictions = a.evictions + b.evictions;
    unary_hits = a.unary_hits + b.unary_hits;
    unary_misses = a.unary_misses + b.unary_misses;
  }

let create ?verdict_capacity ?(plan_capacity = default_plan_capacity) () =
  if plan_capacity < 1 then
    invalid_arg "Plan_cache.create: plan_capacity must be positive";
  {
    verdict_capacity;
    plan_capacity;
    entries = [];
    hom_sources = 0;
    invalidations = 0;
    plan_evictions = 0;
    retired = zero_pebble_stats;
    decisions = Optimizer.Decision_cache.create ();
  }

let entry_for t graph =
  let epoch = Graph.epoch graph in
  match t.entries with
  | e :: _ when e.epoch = epoch -> e
  | entries -> (
      match List.partition (fun e -> e.epoch = epoch) entries with
      | [ e ], rest ->
          (* known store, not most recent: bump to the front *)
          t.entries <- e :: rest;
          e
      | _ ->
          (* A build while other entries are live is what the old
             single-entry cache counted as an invalidation; the count
             keeps that meaning (first-ever build is free). *)
          if entries <> [] then t.invalidations <- t.invalidations + 1;
          let e =
            {
              epoch;
              enc = Encoded.Encoded_graph.of_graph_cached graph;
              pebble =
                Pebble_cache.create ?verdict_capacity:t.verdict_capacity graph;
              trees = [];
            }
          in
          let live = e :: entries in
          let keep, evicted =
            if List.length live <= t.plan_capacity then (live, [])
            else
              ( List.filteri (fun i _ -> i < t.plan_capacity) live,
                List.filteri (fun i _ -> i >= t.plan_capacity) live )
          in
          List.iter
            (fun old ->
              t.plan_evictions <- t.plan_evictions + 1;
              (* fold outstanding worker-view counters into the root
                 first: retiring the bare root stats would drop whatever
                 the views hadn't absorbed yet, making [stats] totals
                 dip across invalidation churn *)
              Pebble_cache.absorb_views old.pebble;
              t.retired <-
                add_pebble_stats t.retired (Pebble_cache.stats old.pebble))
            evicted;
          t.entries <- keep;
          e)

let encoded t graph = (entry_for t graph).enc
let pebble t graph = (entry_for t graph).pebble

let tree_sources t graph tree =
  let e = entry_for t graph in
  match List.find_opt (fun (tr, _) -> tr == tree) e.trees with
  | Some (_, ts) -> ts
  | None ->
      let ts =
        {
          tvars =
            Array.of_list
              (Variable.Set.elements (Wdpt.Pattern_tree.vars tree));
          node_sources = Hashtbl.create 8;
          node_decisions = Hashtbl.create 8;
          naive_verdicts = Hashtbl.create 8;
        }
      in
      e.trees <- (tree, ts) :: e.trees;
      ts

let variables t graph tree = (tree_sources t graph tree).tvars

let node_source t graph tree n =
  let e = entry_for t graph in
  let ts = tree_sources t graph tree in
  match Hashtbl.find_opt ts.node_sources n with
  | Some source -> source
  | None ->
      let source =
        Encoded.Encoded_hom.compile ~vars:ts.tvars
          (Wdpt.Pattern_tree.pat tree n)
          e.enc
      in
      t.hom_sources <- t.hom_sources + 1;
      Hashtbl.add ts.node_sources n source;
      source

let node_decision ?budget t graph tree n =
  let e = entry_for t graph in
  let ts = tree_sources t graph tree in
  match Hashtbl.find_opt ts.node_decisions n with
  | Some d -> d
  | None ->
      let source = node_source t graph tree n in
      (* Bound at node entry: the variables of the strict ancestors of
         [n] — every subtree the enumerator extends into [n] from
         contains the full root-to-parent path, so these are guaranteed
         bound (further subtree nodes may bind more; the join's
         fail-first selection picks those up at run time). *)
      let bound_set =
        let rec up acc = function
          | None -> acc
          | Some m ->
              up
                (Variable.Set.union acc (Wdpt.Pattern_tree.vars_of_node tree m))
                (Wdpt.Pattern_tree.parent tree m)
        in
        up Variable.Set.empty (Wdpt.Pattern_tree.parent tree n)
      in
      let bound_arr =
        Array.map (fun v -> Variable.Set.mem v bound_set) ts.tvars
      in
      let d =
        Optimizer.Decision_cache.compile ?budget t.decisions ~epoch:e.epoch
          e.enc
          ~nvars:(Array.length ts.tvars)
          ~bound:(fun v -> bound_arr.(v))
          ~node:n
          (Encoded.Encoded_hom.patterns source)
      in
      Hashtbl.add ts.node_decisions n d;
      d

let naive_child_test ?budget ?order t graph tree n =
  let source = node_source t graph tree n in
  let ts = tree_sources t graph tree in
  let table =
    match Hashtbl.find_opt ts.naive_verdicts n with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 64 in
        Hashtbl.add ts.naive_verdicts n h;
        h
  in
  (* A fold with [pre] depends on the prefix only through the child's own
     variable slots; everything else in the assignment is invisible to
     the child's patterns. *)
  let slots = Array.of_list (Encoded.Encoded_hom.own_slots source) in
  fun assignment ->
    Option.iter Budget.tick budget;
    let key = Array.fold_right (fun s acc -> assignment.(s) :: acc) slots [] in
    match Hashtbl.find_opt table key with
    | Some v -> v
    | None ->
        let v =
          Encoded.Encoded_hom.fold ?budget ?order ~pre:assignment source
            ~init:false
            ~f:(fun _ _ -> (true, `Stop))
        in
        if Hashtbl.length table < naive_verdict_limit then
          Hashtbl.add table key v;
        v

let stats t =
  let live =
    List.fold_left
      (fun acc e -> add_pebble_stats acc (Pebble_cache.stats e.pebble))
      zero_pebble_stats t.entries
  in
  let d = Optimizer.Decision_cache.stats t.decisions in
  {
    pebble = add_pebble_stats t.retired live;
    hom_sources = t.hom_sources;
    invalidations = t.invalidations;
    plan_evictions = t.plan_evictions;
    live_entries = List.length t.entries;
    decision_hits = d.Optimizer.Decision_cache.hits;
    decision_misses = d.Optimizer.Decision_cache.misses;
  }
