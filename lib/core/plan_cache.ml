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

let add_joins a b =
  {
    runs = a.runs + b.runs;
    extensions = a.extensions + b.extensions;
    capped = a.capped + b.capped;
    pebble_answers = a.pebble_answers + b.pebble_answers;
  }

(* Counters of one node's child joins and child tests. The same record
   sums an entry ([entry_tally]) and keeps what evicted entries counted
   ([t.retired]). *)
type tally = {
  mutable t_runs : int;
  mutable t_extensions : int;
  mutable t_capped : int;
  mutable t_hits : int;  (* relaxed verdicts from the memo *)
  mutable t_misses : int;  (* relaxed verdicts from a game run *)
  mutable t_families : int;
  mutable t_evictions : int;
  mutable t_compiled : int;  (* games compiled for this node *)
  mutable t_decision_hits : int;  (* join orders from the entry's table *)
  mutable t_decision_misses : int;
  mutable t_unary_hits : int;  (* unary-cache lookups of those compiles *)
  mutable t_unary_misses : int;
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
    t_compiled = 0;
    t_decision_hits = 0;
    t_decision_misses = 0;
    t_unary_hits = 0;
    t_unary_misses = 0;
  }

let add_tally into tl =
  into.t_runs <- into.t_runs + tl.t_runs;
  into.t_extensions <- into.t_extensions + tl.t_extensions;
  into.t_capped <- into.t_capped + tl.t_capped;
  into.t_hits <- into.t_hits + tl.t_hits;
  into.t_misses <- into.t_misses + tl.t_misses;
  into.t_families <- into.t_families + tl.t_families;
  into.t_evictions <- into.t_evictions + tl.t_evictions;
  into.t_compiled <- into.t_compiled + tl.t_compiled;
  into.t_decision_hits <- into.t_decision_hits + tl.t_decision_hits;
  into.t_decision_misses <- into.t_decision_misses + tl.t_decision_misses;
  into.t_unary_hits <- into.t_unary_hits + tl.t_unary_hits;
  into.t_unary_misses <- into.t_unary_misses + tl.t_unary_misses

let joins_of tl =
  {
    runs = tl.t_runs;
    extensions = tl.t_extensions;
    capped = tl.t_capped;
    pebble_answers = tl.t_hits + tl.t_misses;
  }

(* Cap on each per-node verdict memo: past this, new verdicts are
   computed but not remembered. A node this wide is one whose verdicts
   rarely repeat anyway. *)
let verdict_limit = 1 lsl 16

(* Every Lemma-1 artefact of one tree node against one store. In a
   well-designed tree a child shares with any subtree exactly the
   variables it shares with its ancestors, so the game, its parameters
   and the verdict keys are fixed per node. *)
type node_state = {
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
  games : (int, Encoded.Encoded_pebble.t) Hashtbl.t;  (* per k *)
  verdicts : (int list, bool) Hashtbl.t;
      (* relaxed verdicts, keyed on [k] and the row's ids at [slots] *)
  tally : tally;
}

(* Per-tree compiled artefacts. Every node pattern of a tree is compiled
   against ONE shared variable table covering vars(T), so the
   enumerator's rows are flat int arrays: a parent's row doubles as the
   child join's [pre] with no re-encoding. *)
type tree_state = {
  tvars : Variable.t array;
  nodes : (Wdpt.Pattern_tree.node, node_state) Hashtbl.t;
}

(* Everything the cache holds for one store: dropping the entry drops
   every artefact compiled against that store. *)
type entry = {
  epoch : int;
  enc : Encoded.Encoded_graph.t;
  unary : Encoded.Encoded_pebble.unary_cache;
      (* µ-independent unary candidate domains, scanned once per store
         and shared by every game compiled against it. Only [game] reads
         it, so [stats] (the server's /stats, outside the plan's lock)
         never does. *)
  decisions : (string, Optimizer.Join_order.decision) Hashtbl.t;
      (* join orders by {!Optimizer.Join_order.signature}: isomorphic
         node joins of any tree are planned once per store *)
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
  retired : tally;
      (* the counters of entries dropped by eviction, so [stats] reports
         the plan's whole history *)
  mutable rows : int;
  mutable answers : int;
}

let add_stats (a : stats) (b : stats) =
  let p = a.pebble and q = b.pebble in
  {
    pebble =
      {
        hits = p.hits + q.hits;
        misses = p.misses + q.misses;
        compiled = p.compiled + q.compiled;
        families = p.families + q.families;
        evictions = p.evictions + q.evictions;
        unary_hits = p.unary_hits + q.unary_hits;
        unary_misses = p.unary_misses + q.unary_misses;
      };
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
    retired = new_tally ();
    rows = 0;
    answers = 0;
  }

let entry_tally e =
  let sum = new_tally () in
  List.iter
    (fun (_, ts) -> Hashtbl.iter (fun _ ns -> add_tally sum ns.tally) ts.nodes)
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
            {
              epoch;
              enc;
              unary = Encoded.Encoded_pebble.create_unary_cache ();
              decisions = Hashtbl.create 16;
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
              add_tally t.retired (entry_tally old))
            evicted;
          t.entries <- keep;
          e)

let release t =
  List.iter (fun e -> add_tally t.retired (entry_tally e)) t.entries;
  t.entries <- []

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
          source;
          slots = Array.of_list (Encoded.Encoded_hom.own_slots source);
          fresh = slots_of (Variable.Set.diff (Tgraphs.Tgraph.vars pat) above);
          decision = None;
          shared = Tgraphs.Gtgraph.make pat shared;
          (* [Encoded_pebble.params] order: the sorted shared set *)
          shared_slots = slots_of shared;
          domain = None;
          games = Hashtbl.create 2;
          verdicts = Hashtbl.create 64;
          tally = new_tally ();
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
      let bound v = bound_arr.(v) in
      let patterns = Encoded.Encoded_hom.patterns ns.source in
      let key = Optimizer.Join_order.signature ~bound patterns in
      let tl = ns.tally in
      let d =
        match Hashtbl.find_opt e.decisions key with
        | Some d ->
            tl.t_decision_hits <- tl.t_decision_hits + 1;
            { d with node = n }
        | None ->
            tl.t_decision_misses <- tl.t_decision_misses + 1;
            let d =
              Optimizer.Join_order.compile ?budget e.enc
                ~nvars:(Array.length ts.tvars) ~bound ~node:n patterns
            in
            Hashtbl.replace e.decisions key d;
            d
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

let key_of slots assignment =
  Array.fold_right (fun s acc -> assignment.(s) :: acc) slots []

type pebble_test = { p_state : node_state; k : int; p_entry : entry }

let pebble_test t graph ~k tree n =
  if k < 1 then invalid_arg "Plan_cache.pebble_test: k must be at least 1";
  let e = entry_for t graph in
  { p_state = node_in t e tree n; k; p_entry = e }

(* The existential (k+1)-pebble game of the test's node, compiled against
   its store on first use. The node's tally counts the compile and the
   unary-cache lookups it made. *)
let game pt =
  let e = pt.p_entry and ns = pt.p_state in
  match Hashtbl.find_opt ns.games pt.k with
  | Some game -> game
  | None ->
      let tl = ns.tally in
      let hits, misses = Encoded.Encoded_pebble.unary_cache_stats e.unary in
      let game =
        Encoded.Encoded_pebble.compile ~unary:e.unary ~k:(pt.k + 1) ns.shared
          e.enc
      in
      let hits', misses' = Encoded.Encoded_pebble.unary_cache_stats e.unary in
      tl.t_compiled <- tl.t_compiled + 1;
      tl.t_unary_hits <- tl.t_unary_hits + hits' - hits;
      tl.t_unary_misses <- tl.t_unary_misses + misses' - misses;
      Hashtbl.add ns.games pt.k game;
      game

(* The relaxed test of the node, for a key already built. The game is
   compiled only on the first memo miss. *)
let relaxed ~budget pt =
  let ns = pt.p_state in
  let tl = ns.tally in
  let game = lazy (game pt) in
  fun key assignment ->
    let key = pt.k :: key in
    match Hashtbl.find_opt ns.verdicts key with
    | Some v ->
        tl.t_hits <- tl.t_hits + 1;
        v
    | None ->
        tl.t_misses <- tl.t_misses + 1;
        let before = Encoded.Encoded_pebble.stats_families_explored () in
        let v =
          Encoded.Encoded_pebble.run ~budget (Lazy.force game)
            ~mu:(Array.map (Array.get assignment) ns.shared_slots)
        in
        tl.t_families <-
          tl.t_families
          + (Encoded.Encoded_pebble.stats_families_explored () - before);
        if Hashtbl.length ns.verdicts < verdict_limit then
          Hashtbl.replace ns.verdicts key v
        else tl.t_evictions <- tl.t_evictions + 1;
        v

let run_pebble ?(budget = Budget.unlimited) pt =
  let test = relaxed ~budget pt in
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

let extensions ?(budget = Budget.unlimited) cj =
  let tl = cj.state.tally in
  (* One search per staged join, run once per parent row: [found]
     counts a run's extensions, [sink] is the caller's, and [pending] is
     the row the capped run extends. The cap's view of [budget] is built
     here once, not per row. *)
  let found = ref 0 and sink = ref ignore and pending = ref [||] in
  let view = Budget.cap_view budget in
  let search =
    Encoded.Encoded_hom.search ?order:cj.order cj.state.source
      ~emit:(fun ext ->
        (* the cap bounds the search for a first extension; past it
           the rest of the join is output *)
        if !found = 0 then Budget.uncap view;
        incr found;
        !sink ext;
        false)
  in
  let whole row = Encoded.Encoded_hom.run search budget row in
  let capped b = Encoded.Encoded_hom.run search b !pending in
  let join =
    match cj.relaxed_test with
    | None -> whole
    | Some pt -> (
        let may_extend = relaxed ~budget pt in
        fun row ->
          pending := row;
          match Budget.capped view cj.cap capped with
          | Some () -> ()
          | None ->
              tl.t_capped <- tl.t_capped + 1;
              (* Spoiler winning proves that no extension exists; a
                 Duplicator win proves nothing, so the child is joined in
                 full *)
              if may_extend (key_of cj.state.slots row) row then whole row)
  in
  fun row f ->
    Budget.tick budget;
    found := 0;
    sink := f;
    join row;
    sink := ignore;
    tl.t_runs <- tl.t_runs + 1;
    tl.t_extensions <- tl.t_extensions + !found

let record_answers t ~rows ~answers =
  t.rows <- t.rows + rows;
  t.answers <- t.answers + answers

let node_joins t graph tree n = joins_of (node_state t graph tree n).tally

let stats t =
  let all = new_tally () in
  add_tally all t.retired;
  List.iter (fun e -> add_tally all (entry_tally e)) t.entries;
  {
    pebble =
      {
        hits = all.t_hits;
        misses = all.t_misses;
        compiled = all.t_compiled;
        families = all.t_families;
        evictions = all.t_evictions;
        unary_hits = all.t_unary_hits;
        unary_misses = all.t_unary_misses;
      };
    joins = joins_of all;
    rows = t.rows;
    answers = t.answers;
    hom_sources = t.hom_sources;
    invalidations = t.invalidations;
    plan_evictions = t.plan_evictions;
    live_entries = List.length t.entries;
    decision_hits = all.t_decision_hits;
    decision_misses = all.t_decision_misses;
  }

let zero_stats = stats (create ())
