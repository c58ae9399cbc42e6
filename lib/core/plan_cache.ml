open Rdf
module Budget = Resource.Budget

type maximality = [ `Hom | `Pebble of int ]

type joins = {
  runs : int;
  extensions : int;
  capped : int;
  pebble_answers : int;
}

type stats = {
  pebble : Pebble_cache.stats;
  joins : joins;
  rows : int;
  answers : int;
  hom_sources : int;
  invalidations : int;
  plan_evictions : int;
  live_entries : int;
  decision_hits : int;
  decision_misses : int;
}

let candidates_per_answer s =
  if s.answers = 0 then 0. else float s.rows /. float s.answers

let pp_joins ppf j =
  Fmt.pf ppf "%d run, %d extension(s), %d capped, %d pebble" j.runs
    j.extensions j.capped j.pebble_answers

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>%a@ child joins: %a@ answers: %d row(s) for %d distinct (%.2f \
     candidates per answer)@ plan cache: %d hom sources compiled, %d \
     invalidations, %d evictions, %d live entries, %d/%d join-order \
     decisions reused@]"
    Pebble_cache.pp_stats s.pebble pp_joins s.joins s.rows s.answers
    (candidates_per_answer s) s.hom_sources s.invalidations s.plan_evictions
    s.live_entries s.decision_hits
    (s.decision_hits + s.decision_misses)

let zero_joins = { runs = 0; extensions = 0; capped = 0; pebble_answers = 0 }

let add_joins a b =
  {
    runs = a.runs + b.runs;
    extensions = a.extensions + b.extensions;
    capped = a.capped + b.capped;
    pebble_answers = a.pebble_answers + b.pebble_answers;
  }

(* Child-join counters of one node, mutated only by the domain that owns
   them: the cache's caller, or one worker until [absorb_worker]. *)
type tally = {
  mutable t_runs : int;
  mutable t_extensions : int;
  mutable t_capped : int;
  mutable t_hits : int;  (* relaxed verdicts from the memo *)
  mutable t_misses : int;  (* relaxed verdicts from a game run *)
  mutable t_families : int;
  mutable t_evictions : int;
}

let new_tally () =
  {
    t_runs = 0;
    t_extensions = 0;
    t_capped = 0;
    t_hits = 0;
    t_misses = 0;
    t_families = 0;
    t_evictions = 0;
  }

let add_tally into tl =
  into.t_runs <- into.t_runs + tl.t_runs;
  into.t_extensions <- into.t_extensions + tl.t_extensions;
  into.t_capped <- into.t_capped + tl.t_capped;
  into.t_hits <- into.t_hits + tl.t_hits;
  into.t_misses <- into.t_misses + tl.t_misses;
  into.t_families <- into.t_families + tl.t_families;
  into.t_evictions <- into.t_evictions + tl.t_evictions

let joins_of tl =
  {
    runs = tl.t_runs;
    extensions = tl.t_extensions;
    capped = tl.t_capped;
    pebble_answers = tl.t_hits + tl.t_misses;
  }

(* A node's relaxed-verdict memo and counters, on the cache or on a
   worker. Verdicts are keyed on [k] and the row's ids at the node's own
   slots. *)
type memo = { relaxed_verdicts : (int list, bool) Hashtbl.t; tally : tally }

let new_memo () = { relaxed_verdicts = Hashtbl.create 64; tally = new_tally () }

(* Cap on each per-node verdict memo: past this, new verdicts are
   computed but not remembered. A node this wide is one whose verdicts
   rarely repeat anyway. *)
let verdict_limit = 1 lsl 16

(* Every Lemma-1 artefact of one tree node against one store. In a
   well-designed tree a child shares with any subtree exactly the
   variables it shares with its ancestors, so the game, its parameters
   and the verdict keys are fixed per node. *)
type node_state = {
  id : Wdpt.Pattern_tree.node;
  source : Encoded.Encoded_hom.source;
  slots : int array;
      (* the node's own slots: a fold with [pre] depends on the prefix
         only through them, so they key the relaxed-verdict memo *)
  fresh : int array;  (* the slots of the variables [n] introduces *)
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
   enumerator's rows are flat int arrays: a parent's row doubles as the
   child join's [pre] with no re-encoding. *)
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
      (* store and child-join counters of entries dropped by eviction, so
         [stats] reports the plan's whole history *)
  mutable rows : int;
  mutable answers : int;
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
    joins = zero_joins;
    rows = 0;
    answers = 0;
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
    joins = add_joins a.joins b.joins;
    rows = a.rows + b.rows;
    answers = a.answers + b.answers;
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
    rows = 0;
    answers = 0;
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
      let above = ancestor_vars tree n in
      let shared = Variable.Set.inter (Tgraphs.Tgraph.vars pat) above in
      let slots_of vars =
        Array.of_list (List.map (slot_of ts.tvars) (Variable.Set.elements vars))
      in
      let ns =
        {
          id = n;
          source;
          slots = Array.of_list (Encoded.Encoded_hom.own_slots source);
          fresh = slots_of (Variable.Set.diff (Tgraphs.Tgraph.vars pat) above);
          decision = None;
          shared = Tgraphs.Gtgraph.make pat shared;
          (* [Encoded_pebble.params] order: the sorted shared set *)
          shared_slots = slots_of shared;
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
        if Hashtbl.length memo.relaxed_verdicts < verdict_limit then
          Hashtbl.replace memo.relaxed_verdicts key v
        else tl.t_evictions <- tl.t_evictions + 1;
        v

let run_pebble ?(budget = Budget.unlimited) ?worker pt =
  let test = relaxed ~budget pt (memo_of ?worker pt.p_state) in
  fun assignment ->
    Budget.tick budget;
    test (key_of pt.p_state.slots assignment) assignment

type child_join = {
  state : node_state;
  order : int array option;
  cap : int;  (* unused under [`Hom] *)
  relaxed_test : pebble_test option;  (* None under [`Hom]: no cap, no game *)
}

let stage_child_join ?order t graph maximality tree n =
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

let fresh_slots cj = cj.state.fresh

let extensions ?(budget = Budget.unlimited) ?worker cj =
  let memo = memo_of ?worker cj.state in
  let tl = memo.tally in
  let join ~first budget row =
    Encoded.Encoded_hom.fold ~budget ?order:cj.order ~pre:row cj.state.source
      ~init:[]
      ~f:(fun acc ext ->
        if acc = [] then first budget;
        (Array.copy ext :: acc, `Continue))
  in
  let whole = join ~first:ignore in
  let exts =
    match cj.relaxed_test with
    | None -> whole budget
    | Some pt ->
        let may_extend = relaxed ~budget pt memo in
        fun row ->
          (* the cap bounds the search for a first extension; past it
             the rest of the join is output *)
          match
            Budget.capped budget cj.cap (fun b -> join ~first:Budget.uncap b row)
          with
          | Some exts -> exts
          | None ->
              tl.t_capped <- tl.t_capped + 1;
              (* Spoiler winning proves that no extension exists; a
                 Duplicator win proves nothing, so the child is joined in
                 full *)
              if may_extend (key_of cj.state.slots row) row then
                whole budget row
              else []
  in
  fun row ->
    Budget.tick budget;
    let found = exts row in
    tl.t_runs <- tl.t_runs + 1;
    tl.t_extensions <- tl.t_extensions + List.length found;
    found

let record_answers t ~rows ~answers =
  t.rows <- t.rows + rows;
  t.answers <- t.answers + answers

let node_joins t graph tree n = joins_of (node_state t graph tree n).memo.tally

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
    joins = joins_of all;
    rows = t.rows;
    answers = t.answers;
    hom_sources = t.hom_sources;
    invalidations = t.invalidations;
    plan_evictions = t.plan_evictions;
    live_entries = List.length t.entries;
    decision_hits = d.Optimizer.Decision_cache.hits;
    decision_misses = d.Optimizer.Decision_cache.misses;
  }
