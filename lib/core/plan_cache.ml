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

(* Child-test counters of one node, mutated only by the domain that owns
   them: the cache's caller, or one worker until [absorb_worker]. *)
type tally = {
  mutable t_exact : int;
  mutable t_exact_hits : int;
  mutable t_capped : int;
  mutable t_hits : int;  (* relaxed verdicts from the memo *)
  mutable t_misses : int;  (* relaxed verdicts from a game run *)
  mutable t_families : int;
  mutable t_evictions : int;
}

let new_tally () =
  {
    t_exact = 0;
    t_exact_hits = 0;
    t_capped = 0;
    t_hits = 0;
    t_misses = 0;
    t_families = 0;
    t_evictions = 0;
  }

let add_tally into tl =
  into.t_exact <- into.t_exact + tl.t_exact;
  into.t_exact_hits <- into.t_exact_hits + tl.t_exact_hits;
  into.t_capped <- into.t_capped + tl.t_capped;
  into.t_hits <- into.t_hits + tl.t_hits;
  into.t_misses <- into.t_misses + tl.t_misses;
  into.t_families <- into.t_families + tl.t_families;
  into.t_evictions <- into.t_evictions + tl.t_evictions

let tests_of tl =
  {
    exact = tl.t_exact;
    exact_hits = tl.t_exact_hits;
    pebble_answers = tl.t_hits + tl.t_misses;
    capped = tl.t_capped;
  }

(* A node's verdict memos and counters, on the cache or on a worker. The
   two kinds of verdict live in separate tables: a single relaxed child
   test may over-approximate an exact one (only the disjunction over a
   subtree's children is exact, Theorem 1), so neither may answer for
   the other. Both are keyed on the candidate's ids at the node's own
   slots, the relaxed one with [k] in front. *)
type memo = {
  exact_verdicts : (int list, verdict) Hashtbl.t;
  relaxed_verdicts : (int list, bool) Hashtbl.t;
  tally : tally;
}

let new_memo () =
  {
    exact_verdicts = Hashtbl.create 64;
    relaxed_verdicts = Hashtbl.create 64;
    tally = new_tally ();
  }

(* Cap on each per-node verdict table: past this, new verdicts are
   computed but not remembered. A node this wide is one whose verdicts
   rarely repeat anyway. *)
let verdict_limit = 1 lsl 16

(* Remember a verdict unless the node's table is full; says whether it
   did. *)
let remember table key v =
  Hashtbl.length table < verdict_limit
  && (Hashtbl.replace table key v;
      true)

(* Every Lemma-1 artefact of one tree node against one store. In a
   well-designed tree a child shares with any subtree exactly the
   variables it shares with its ancestors, so the game, its parameters
   and the verdict keys are fixed per node. *)
type node_state = {
  id : Wdpt.Pattern_tree.node;
  source : Encoded.Encoded_hom.source;
  slots : int array;
      (* the node's own slots: a fold with [pre] depends on the prefix
         only through them, so they key both verdict memos *)
  mutable decision : Optimizer.Join_order.decision option;
      (* cost-based plan, computed against this entry's store *)
  shared : Tgraphs.Gtgraph.t;  (* (pat n, vars shared with the ancestors) *)
  shared_slots : int array;  (* the game's parameters, in its order *)
  mutable domain : int option;  (* the cap's base, once computed *)
  games : (int, Encoded.Encoded_pebble.t) Hashtbl.t;
      (* per k; read and written under the store's pebble lock *)
  memo : memo;
}

(* Per-tree compiled artefacts. Every node pattern of a tree is compiled
   against ONE shared variable table covering vars(T), so the
   enumerator's assignments are flat int arrays: a parent's solution
   doubles as the child join's [pre] with no re-encoding. *)
type tree_state = {
  tvars : Variable.t array;
  nodes : (Wdpt.Pattern_tree.node, node_state) Hashtbl.t;
}

type entry = {
  epoch : int;
  enc : Encoded.Encoded_graph.t;
  pebble : Pebble_cache.t;
  mutable trees : (Wdpt.Pattern_tree.t * tree_state) list;
      (* keyed on physical identity: plans hold their forest alive, so
         the same tree value flows through every evaluation of a plan *)
}

let default_plan_capacity = 4

type t = {
  plan_capacity : int;
  mutable entries : entry list;
      (* most-recently-used first, keyed by store epoch; at most
         [plan_capacity] long, so round-robin evaluation over a few
         stores stops rebuilding everything on every switch *)
  mutable hom_sources : int;
  mutable invalidations : int;
  mutable plan_evictions : int;
  mutable retired : Pebble_cache.stats;
  retired_tally : tally;
      (* store and child-test counters of entries dropped by eviction, so
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

let create ?(plan_capacity = default_plan_capacity) () =
  if plan_capacity < 1 then
    invalid_arg "Plan_cache.create: plan_capacity must be positive";
  {
    plan_capacity;
    entries = [];
    hom_sources = 0;
    invalidations = 0;
    plan_evictions = 0;
    retired = zero_pebble_stats;
    retired_tally = new_tally ();
    decisions = Optimizer.Decision_cache.create ();
  }

let entry_tally e =
  let sum = new_tally () in
  List.iter
    (fun (_, ts) ->
      Hashtbl.iter (fun _ ns -> add_tally sum ns.memo.tally) ts.nodes)
    e.trees;
  sum

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
          let enc = Encoded.Encoded_graph.of_graph_cached graph in
          let e =
            { epoch; enc; pebble = Pebble_cache.create enc; trees = [] }
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
              t.retired <-
                add_pebble_stats t.retired (Pebble_cache.stats old.pebble);
              add_tally t.retired_tally (entry_tally old))
            evicted;
          t.entries <- keep;
          e)

let encoded t graph = (entry_for t graph).enc

let tree_state e tree =
  match List.find_opt (fun (tr, _) -> tr == tree) e.trees with
  | Some (_, ts) -> ts
  | None ->
      let ts =
        {
          tvars =
            Array.of_list
              (Variable.Set.elements (Wdpt.Pattern_tree.vars tree));
          nodes = Hashtbl.create 8;
        }
      in
      e.trees <- (tree, ts) :: e.trees;
      ts

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

let slot_of tvars v =
  let rec go i = if Variable.equal tvars.(i) v then i else go (i + 1) in
  go 0

let node_in t e tree n =
  let ts = tree_state e tree in
  match Hashtbl.find_opt ts.nodes n with
  | Some ns -> ns
  | None ->
      let pat = Wdpt.Pattern_tree.pat tree n in
      let source = Encoded.Encoded_hom.compile ~vars:ts.tvars pat e.enc in
      t.hom_sources <- t.hom_sources + 1;
      let shared =
        Variable.Set.inter (Tgraphs.Tgraph.vars pat) (ancestor_vars tree n)
      in
      let ns =
        {
          id = n;
          source;
          slots = Array.of_list (Encoded.Encoded_hom.own_slots source);
          decision = None;
          shared = Tgraphs.Gtgraph.make pat shared;
          (* [Encoded_pebble.params] order: the sorted shared set *)
          shared_slots =
            Array.of_list
              (List.map (slot_of ts.tvars) (Variable.Set.elements shared));
          domain = None;
          games = Hashtbl.create 2;
          memo = new_memo ();
        }
      in
      Hashtbl.add ts.nodes n ns;
      ns

let node_state t graph tree n = node_in t (entry_for t graph) tree n
let node_source t graph tree n = (node_state t graph tree n).source

let node_decision ?budget t graph tree n =
  let e = entry_for t graph in
  let ns = node_in t e tree n in
  match ns.decision with
  | Some d -> d
  | None ->
      let ts = tree_state e tree in
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
          (Encoded.Encoded_hom.patterns ns.source)
      in
      ns.decision <- Some d;
      d

(* The pebble game's own polynomial bound, d^(k+1) over the largest
   candidate domain d the node's game ranges over: a free variable's
   µ-independent unary candidates, else the whole dictionary. *)
let exact_cap t graph tree n k =
  let e = entry_for t graph in
  let ns = node_in t e tree n in
  let d =
    match ns.domain with
    | Some d -> d
    | None ->
        let d = Encoded.Encoded_pebble.domain_bound ns.shared e.enc in
        ns.domain <- Some d;
        d
  in
  let d = max 2 d in
  let rec pow acc i =
    if i = 0 then acc
    else if acc > max_int / d then max_int - 1
    else pow (acc * d) (i - 1)
  in
  pow 1 (k + 1)

(* A worker: one pool slot's private memos and counters for the nodes
   of the entry it was made on, folded back by [absorb_worker]. *)
type worker = {
  w_entry : entry;
  memos : (Wdpt.Pattern_tree.node, memo) Hashtbl.t;
}

let worker t graph = { w_entry = entry_for t graph; memos = Hashtbl.create 8 }

let absorb_worker t tree w =
  (* an entry evicted meanwhile has had its counters retired already *)
  let live = List.memq w.w_entry t.entries in
  Hashtbl.iter
    (fun n memo ->
      add_tally
        (if live then (node_in t w.w_entry tree n).memo.tally
         else t.retired_tally)
        memo.tally)
    w.memos;
  Hashtbl.reset w.memos

let memo_of ?worker ns =
  match worker with
  | None -> ns.memo
  | Some w -> (
      match Hashtbl.find_opt w.memos ns.id with
      | Some m -> m
      | None ->
          let m = new_memo () in
          Hashtbl.add w.memos ns.id m;
          m)

let key_of slots assignment =
  Array.fold_right (fun s acc -> assignment.(s) :: acc) slots []

type pebble_test = { p_state : node_state; k : int; store : Pebble_cache.t }

let pebble_test t graph ~k tree n =
  if k < 1 then invalid_arg "Plan_cache.pebble_test: k must be at least 1";
  let e = entry_for t graph in
  { p_state = node_in t e tree n; k; store = e.pebble }

(* The relaxed test against one memo, for a key already built. The game
   is compiled (under the store's lock) only on the first memo miss. *)
let relaxed ~budget pt memo =
  let game =
    lazy (Pebble_cache.game pt.store pt.p_state.games ~k:pt.k pt.p_state.shared)
  in
  let tl = memo.tally in
  fun key assignment ->
    let key = pt.k :: key in
    match Hashtbl.find_opt memo.relaxed_verdicts key with
    | Some v ->
        tl.t_hits <- tl.t_hits + 1;
        v
    | None ->
        tl.t_misses <- tl.t_misses + 1;
        let v, families =
          Pebble_cache.run ~budget (Lazy.force game)
            (Array.map (Array.get assignment) pt.p_state.shared_slots)
        in
        tl.t_families <- tl.t_families + families;
        if not (remember memo.relaxed_verdicts key v) then
          tl.t_evictions <- tl.t_evictions + 1;
        v

let run_pebble ?(budget = Budget.unlimited) ?worker pt =
  let test = relaxed ~budget pt (memo_of ?worker pt.p_state) in
  fun assignment ->
    Budget.tick budget;
    test (key_of pt.p_state.slots assignment) assignment

type child_test = {
  state : node_state;
  order : int array option;
  cap : int;  (* unused under [`Hom] *)
  relaxed_test : pebble_test option;  (* None under [`Hom]: no cap, no game *)
}

let stage_child_test ?order t graph maximality tree n =
  let e = entry_for t graph in
  let state = node_in t e tree n in
  let cap, relaxed_test =
    match maximality with
    | `Hom -> (max_int, None)
    | `Pebble k ->
        let pt = pebble_test t graph ~k tree n in
        (exact_cap t graph tree n k, Some pt)
  in
  { state; order; cap; relaxed_test }

let run ?(budget = Budget.unlimited) ?worker ct =
  let memo = memo_of ?worker ct.state in
  let tl = memo.tally and verdicts = memo.exact_verdicts in
  let exists budget assignment =
    Encoded.Encoded_hom.fold ~budget ?order:ct.order ~pre:assignment
      ct.state.source ~init:false
      ~f:(fun _ _ -> (true, `Stop))
  in
  let by_pebble =
    match ct.relaxed_test with
    | Some pt -> relaxed ~budget pt memo
    | None -> fun _ _ -> assert false
  in
  let decided key v =
    ignore (remember verdicts key (if v then Extends else No_extension));
    tl.t_exact <- tl.t_exact + 1;
    v
  in
  fun assignment ->
    Budget.tick budget;
    let key = key_of ct.state.slots assignment in
    match (Hashtbl.find_opt verdicts key, ct.relaxed_test) with
    | Some ((Extends | No_extension) as v), _ ->
        tl.t_exact <- tl.t_exact + 1;
        tl.t_exact_hits <- tl.t_exact_hits + 1;
        v = Extends
    | Some Capped, Some _ -> by_pebble key assignment
    | (None | Some Capped), None -> decided key (exists budget assignment)
    | None, Some _ -> (
        match Budget.capped budget ct.cap (fun b -> exists b assignment) with
        | Some v -> decided key v
        | None ->
            tl.t_capped <- tl.t_capped + 1;
            ignore (remember verdicts key Capped);
            by_pebble key assignment)

let node_tests t graph tree n = tests_of (node_state t graph tree n).memo.tally

let stats t =
  let all = new_tally () in
  add_tally all t.retired_tally;
  List.iter (fun e -> add_tally all (entry_tally e)) t.entries;
  let stores =
    List.fold_left
      (fun acc e -> add_pebble_stats acc (Pebble_cache.stats e.pebble))
      t.retired t.entries
  in
  let d = Optimizer.Decision_cache.stats t.decisions in
  {
    pebble =
      {
        stores with
        hits = all.t_hits;
        misses = all.t_misses;
        families = all.t_families;
        evictions = all.t_evictions;
      };
    tests = tests_of all;
    hom_sources = t.hom_sources;
    invalidations = t.invalidations;
    plan_evictions = t.plan_evictions;
    live_entries = List.length t.entries;
    decision_hits = d.Optimizer.Decision_cache.hits;
    decision_misses = d.Optimizer.Decision_cache.misses;
  }
