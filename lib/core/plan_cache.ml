open Rdf
module Budget = Resource.Budget

type maximality = [ `Hom | `Pebble of int ]

type tests = {
  exact : int;
  exact_hits : int;
  pebble_answers : int;
  capped : int;
}

type stats = {
  pebble : Pebble_cache.stats;
  tests : tests;
  hom_sources : int;
  invalidations : int;
  plan_evictions : int;
  live_entries : int;
  decision_hits : int;
  decision_misses : int;
}

let pp_tests ppf t =
  Fmt.pf ppf "%d exact (%d from the memo), %d pebble, %d capped" t.exact
    t.exact_hits t.pebble_answers t.capped

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>%a@ child tests: %a@ plan cache: %d hom sources compiled, %d \
     invalidations, %d evictions, %d live entries, %d/%d join-order \
     decisions reused@]"
    Pebble_cache.pp_stats s.pebble pp_tests s.tests s.hom_sources
    s.invalidations s.plan_evictions s.live_entries s.decision_hits
    (s.decision_hits + s.decision_misses)

let zero_tests = { exact = 0; exact_hits = 0; pebble_answers = 0; capped = 0 }

let add_tests a b =
  {
    exact = a.exact + b.exact;
    exact_hits = a.exact_hits + b.exact_hits;
    pebble_answers = a.pebble_answers + b.pebble_answers;
    capped = a.capped + b.capped;
  }

(* An exact-side verdict: the answer, or "the search tripped the cap"
   (the key then goes straight to the pebble game). *)
type verdict = Extends | No_extension | Capped

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
  exact_verdicts :
    (Wdpt.Pattern_tree.node, (int list, verdict) Hashtbl.t) Hashtbl.t;
      (* per-node existence-verdict memo for the exact maximality test:
         the verdict of "does a child extension exist?" depends on the
         candidate only through the child's own variable slots, so it is
         keyed on those ids. Shared across evaluations of the same store
         epoch — the exact side's counterpart of Pebble_cache's verdict
         memo. Never holds a pebble verdict: a single relaxed child test
         may over-approximate, only the disjunction over a subtree's
         children is exact (Theorem 1). *)
  node_domains : (Wdpt.Pattern_tree.node, int) Hashtbl.t;
      (* per child: the largest candidate domain its pebble game ranges
         over, the base of the exact side's cap *)
  tallies : (Wdpt.Pattern_tree.node, tests ref) Hashtbl.t;
      (* per-node child-test counters, mutated only by the caller's
         domain; a worker counts in its own table until
         [absorb_worker] *)
}

(* Cap on each per-node exact-verdict table: past this, new verdicts are
   computed but not remembered. Crude compared to the pebble cache's
   LRU; a node this wide is one whose verdicts rarely repeat anyway. *)
let exact_verdict_limit = 1 lsl 16

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
  mutable retired_tests : tests;
      (* accumulated stats of pebble caches and child-test tallies
         dropped by eviction, so [stats] reports the plan's whole
         history *)
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

let zero_stats =
  {
    pebble = zero_pebble_stats;
    tests = zero_tests;
    hom_sources = 0;
    invalidations = 0;
    plan_evictions = 0;
    live_entries = 0;
    decision_hits = 0;
    decision_misses = 0;
  }

let add_stats (a : stats) (b : stats) =
  {
    pebble = add_pebble_stats a.pebble b.pebble;
    tests = add_tests a.tests b.tests;
    hom_sources = a.hom_sources + b.hom_sources;
    invalidations = a.invalidations + b.invalidations;
    plan_evictions = a.plan_evictions + b.plan_evictions;
    live_entries = a.live_entries + b.live_entries;
    decision_hits = a.decision_hits + b.decision_hits;
    decision_misses = a.decision_misses + b.decision_misses;
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
    retired_tests = zero_tests;
    decisions = Optimizer.Decision_cache.create ();
  }

let entry_tests e =
  List.fold_left
    (fun acc (_, ts) ->
      Hashtbl.fold (fun _ tl acc -> add_tests acc !tl) ts.tallies acc)
    zero_tests e.trees

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
                add_pebble_stats t.retired (Pebble_cache.stats old.pebble);
              t.retired_tests <- add_tests t.retired_tests (entry_tests old))
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
          exact_verdicts = Hashtbl.create 8;
          node_domains = Hashtbl.create 8;
          tallies = Hashtbl.create 8;
        }
      in
      e.trees <- (tree, ts) :: e.trees;
      ts

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

(* The variables of the strict ancestors of [n]. *)
let ancestor_vars tree n =
  let rec up acc = function
    | None -> acc
    | Some m ->
        up
          (Variable.Set.union acc (Wdpt.Pattern_tree.vars_of_node tree m))
          (Wdpt.Pattern_tree.parent tree m)
  in
  up Variable.Set.empty (Wdpt.Pattern_tree.parent tree n)

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
      let bound_set = ancestor_vars tree n in
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

let find_or_add table key make =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.add table key v;
      v

(* The pebble game's own polynomial bound, d^(k+1) over the largest
   candidate domain d the child's game ranges over: a free variable's
   µ-independent unary candidates, else the whole dictionary. In a
   well-designed tree the child shares with any subtree exactly the
   variables it shares with its ancestors, so d is fixed per node. *)
let exact_cap t graph tree n k =
  let e = entry_for t graph in
  let ts = tree_sources t graph tree in
  let d =
    find_or_add ts.node_domains n (fun () ->
        let pat = Wdpt.Pattern_tree.pat tree n in
        let shared =
          Variable.Set.inter (Tgraphs.Tgraph.vars pat) (ancestor_vars tree n)
        in
        Encoded.Encoded_pebble.domain_bound
          (Tgraphs.Gtgraph.make pat shared)
          e.enc)
  in
  let d = max 2 d in
  let rec pow acc i =
    if i = 0 then acc
    else if acc > max_int / d then max_int - 1
    else pow (acc * d) (i - 1)
  in
  pow 1 (k + 1)

type child_test = {
  source : Encoded.Encoded_hom.source;
  slots : int array;
  order : int array option;
  verdicts : (int list, verdict) Hashtbl.t;
  node_tally : tests ref;
  pebble_root : Pebble_cache.t;
  cap : int option;  (* None under [`Hom]: no cap, no pebble side *)
  k : int;
  tree : Wdpt.Pattern_tree.t;
  vars : Variable.t array;
  subtree : Wdpt.Subtree.t;
  node : Wdpt.Pattern_tree.node;
}

let stage_child_test ?order t graph maximality tree subtree n =
  let e = entry_for t graph in
  let ts = tree_sources t graph tree in
  let source = node_source t graph tree n in
  let cap, k =
    match maximality with
    | `Hom -> (None, 0)
    | `Pebble k ->
        if k < 1 then invalid_arg "Pebble_game.wins: k must be at least 1";
        (Some (exact_cap t graph tree n k), k)
  in
  {
    source;
    (* A fold with [pre] depends on the prefix only through the child's
       own variable slots; everything else in the assignment is
       invisible to the child's patterns. *)
    slots = Array.of_list (Encoded.Encoded_hom.own_slots source);
    order;
    verdicts =
      find_or_add ts.exact_verdicts n (fun () -> Hashtbl.create 64);
    node_tally = find_or_add ts.tallies n (fun () -> ref zero_tests);
    pebble_root = e.pebble;
    cap;
    k;
    tree;
    vars = ts.tvars;
    subtree;
    node = n;
  }

(* A pool slot's private side of the child tests: its own exact-verdict
   memo and tallies (folded into the root's by [absorb_worker]) and its
   own pebble-cache view, so workers share nothing mutable. *)
type worker = {
  view : Pebble_cache.t;
  worker_verdicts :
    (Wdpt.Pattern_tree.node, (int list, verdict) Hashtbl.t) Hashtbl.t;
  worker_tallies : (Wdpt.Pattern_tree.node, tests ref) Hashtbl.t;
}

let worker t graph slot =
  {
    view = Pebble_cache.worker_view_for (pebble t graph) slot;
    worker_verdicts = Hashtbl.create 8;
    worker_tallies = Hashtbl.create 8;
  }

let absorb_worker t graph tree w =
  let ts = tree_sources t graph tree in
  Hashtbl.iter
    (fun n wt ->
      let tl = find_or_add ts.tallies n (fun () -> ref zero_tests) in
      tl := add_tests !tl !wt)
    w.worker_tallies;
  Hashtbl.reset w.worker_tallies;
  Pebble_cache.absorb (pebble t graph) w.view

let run ?(budget = Budget.unlimited) ?worker ct =
  let verdicts, tl, pebble =
    match worker with
    | None -> (ct.verdicts, ct.node_tally, ct.pebble_root)
    | Some w ->
        ( find_or_add w.worker_verdicts ct.node (fun () -> Hashtbl.create 64),
          find_or_add w.worker_tallies ct.node (fun () -> ref zero_tests),
          w.view )
  in
  let exists budget assignment =
    Encoded.Encoded_hom.fold ~budget ?order:ct.order ~pre:assignment ct.source
      ~init:false
      ~f:(fun _ _ -> (true, `Stop))
  in
  (* staged only once the cap first trips *)
  let pebble_test =
    lazy
      (Pebble_cache.stage_child_test_ids pebble ~budget ~k:ct.k ct.tree
         ~vars:ct.vars ct.subtree ct.node)
  in
  let by_pebble assignment =
    tl := { !tl with pebble_answers = !tl.pebble_answers + 1 };
    Lazy.force pebble_test assignment
  in
  let exact v =
    tl := { !tl with exact = !tl.exact + 1 };
    v
  in
  let remember key v =
    if Hashtbl.length verdicts < exact_verdict_limit then
      Hashtbl.replace verdicts key v
  in
  let decided key v =
    remember key (if v then Extends else No_extension);
    exact v
  in
  fun assignment ->
    Budget.tick budget;
    let key =
      Array.fold_right (fun s acc -> assignment.(s) :: acc) ct.slots []
    in
    match (Hashtbl.find_opt verdicts key, ct.cap) with
    | Some ((Extends | No_extension) as v), _ ->
        let t = !tl in
        tl := { t with exact = t.exact + 1; exact_hits = t.exact_hits + 1 };
        v = Extends
    | Some Capped, Some _ -> by_pebble assignment
    | (None | Some Capped), None -> decided key (exists budget assignment)
    | None, Some cap -> (
        match Budget.capped budget cap (fun b -> exists b assignment) with
        | Some v -> decided key v
        | None ->
            tl := { !tl with capped = !tl.capped + 1 };
            remember key Capped;
            by_pebble assignment)

let node_tests t graph tree n =
  match Hashtbl.find_opt (tree_sources t graph tree).tallies n with
  | Some tl -> !tl
  | None -> zero_tests

let stats t =
  let live =
    List.fold_left
      (fun acc e -> add_pebble_stats acc (Pebble_cache.stats e.pebble))
      zero_pebble_stats t.entries
  in
  let d = Optimizer.Decision_cache.stats t.decisions in
  {
    pebble = add_pebble_stats t.retired live;
    tests =
      List.fold_left
        (fun acc e -> add_tests acc (entry_tests e))
        t.retired_tests t.entries;
    hom_sources = t.hom_sources;
    invalidations = t.invalidations;
    plan_evictions = t.plan_evictions;
    live_entries = List.length t.entries;
    decision_hits = d.Optimizer.Decision_cache.hits;
    decision_misses = d.Optimizer.Decision_cache.misses;
  }
