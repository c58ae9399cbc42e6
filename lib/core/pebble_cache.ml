open Rdf
module Budget = Resource.Budget

type stats = {
  hits : int;
  misses : int;
  compiled : int;
  families : int;
  evictions : int;
  unary_hits : int;
  unary_misses : int;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "pebble cache: %d hits, %d misses, %d games compiled, %d families, %d \
     verdicts evicted, unary domains %d reused / %d scanned"
    s.hits s.misses s.compiled s.families s.evictions s.unary_hits
    s.unary_misses

(* Anchor position: the subtree pattern is fully grounded by µ, so it
   compiles to constants and indices into the subtree's variable array. *)
type apos = C of int | V of int

(* Verdict entries are intrusive doubly-linked LRU nodes threaded through
   a single recency list shared by every game of the cache, so one global
   capacity bounds the whole evaluation's verdict memory (long
   enumerations over huge µ|shared spaces would otherwise grow without
   bound). [owner] is the per-game table the node lives in, so eviction
   at the cold end can remove it without knowing which game it belongs
   to. *)
type lru_node = {
  nkey : int list;
  verdict : bool;
  owner : (int list, lru_node) Hashtbl.t;
  mutable prev : lru_node option;
  mutable next : lru_node option;
}

type child_game = {
  anchor_params : Variable.t array;
  anchor : (apos * apos * apos) array;
  game : Encoded.Encoded_pebble.t;
  game_params : Variable.t array;
  verdicts : (int list, lru_node) Hashtbl.t;
  (* param positions resolved against a caller's shared variable table
     (physical identity), so id-level callers skip the µ round-trip *)
  mutable slots : (Variable.t array * int array * int array) option;
}

type game_key = { stamp : int; members : int list; child : int; key_k : int }

let default_verdict_capacity = 1 lsl 20

type t = {
  graph : Graph.t;
  enc : Encoded.Encoded_graph.t;
  memo : bool;
  verdict_capacity : int;
  games : (game_key, child_game) Hashtbl.t;
  mutable stamps : (Wdpt.Pattern_tree.t * int) list;
  mutable lru_head : lru_node option;
  mutable lru_tail : lru_node option;
  mutable lru_size : int;
  mutable hits : int;
  mutable misses : int;
  mutable compiled : int;
  mutable families : int;
  mutable evictions : int;
  unary : Encoded.Encoded_pebble.unary_cache;
  (* Parallel structure. A root cache ([parent = None]) owns the
     authoritative games table and tree stamps, guarded by [lock] so
     worker views can delegate compile-or-lookup to it. A worker view
     ([parent = Some root]) shares the root's compiled games read-only
     and keeps everything mutable — verdict tables, LRU list, slot
     memos, counters — private to its own domain. *)
  lock : Mutex.t;
  parent : t option;
  views : (int, t) Hashtbl.t;
      (* root only: memoized worker views per pool slot, so their
         verdict memos stay warm across evaluations *)
}

let create ?(memo = true) ?(verdict_capacity = default_verdict_capacity) graph =
  if verdict_capacity < 1 then
    invalid_arg "Pebble_cache.create: verdict_capacity must be positive";
  {
    graph;
    enc = Encoded.Encoded_graph.of_graph_cached graph;
    memo;
    verdict_capacity;
    games = Hashtbl.create 64;
    stamps = [];
    lru_head = None;
    lru_tail = None;
    lru_size = 0;
    hits = 0;
    misses = 0;
    compiled = 0;
    families = 0;
    evictions = 0;
    unary = Encoded.Encoded_pebble.create_unary_cache ();
    lock = Mutex.create ();
    parent = None;
    views = Hashtbl.create 8;
  }

let graph t = t.graph
let root t = match t.parent with None -> t | Some r -> r

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let worker_view t =
  let r = root t in
  {
    graph = r.graph;
    enc = r.enc;
    memo = r.memo;
    verdict_capacity = r.verdict_capacity;
    games = Hashtbl.create 64;
    stamps = [] (* unused: stamps live on the root *);
    lru_head = None;
    lru_tail = None;
    lru_size = 0;
    hits = 0;
    misses = 0;
    compiled = 0;
    families = 0;
    evictions = 0;
    unary = r.unary (* only the root compiles against it *);
    lock = Mutex.create ();
    parent = Some r;
    views = Hashtbl.create 1;
  }

let worker_view_for t slot =
  let r = root t in
  with_lock r.lock @@ fun () ->
  match Hashtbl.find_opt r.views slot with
  | Some v -> v
  | None ->
      let v = worker_view r in
      Hashtbl.add r.views slot v;
      v

let absorb t view =
  let t = root t in
  t.hits <- t.hits + view.hits;
  t.misses <- t.misses + view.misses;
  t.compiled <- t.compiled + view.compiled;
  t.families <- t.families + view.families;
  t.evictions <- t.evictions + view.evictions;
  view.hits <- 0;
  view.misses <- 0;
  view.compiled <- 0;
  view.families <- 0;
  view.evictions <- 0

let absorb_views t =
  let r = root t in
  Hashtbl.iter (fun _ v -> absorb r v) r.views

let stats t =
  let unary_hits, unary_misses =
    Encoded.Encoded_pebble.unary_cache_stats t.unary
  in
  {
    hits = t.hits;
    misses = t.misses;
    compiled = t.compiled;
    families = t.families;
    evictions = t.evictions;
    unary_hits;
    unary_misses;
  }

(* --- intrusive LRU list ------------------------------------------------ *)

let lru_unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.lru_head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.lru_tail <- node.prev);
  node.prev <- None;
  node.next <- None

let lru_push_front t node =
  node.next <- t.lru_head;
  (match t.lru_head with Some h -> h.prev <- Some node | None -> ());
  t.lru_head <- Some node;
  if t.lru_tail = None then t.lru_tail <- Some node

let lru_touch t node =
  match t.lru_head with
  | Some h when h == node -> ()
  | _ ->
      lru_unlink t node;
      lru_push_front t node

let lru_insert t node =
  lru_push_front t node;
  t.lru_size <- t.lru_size + 1;
  if t.lru_size > t.verdict_capacity then
    match t.lru_tail with
    | None -> assert false
    | Some cold ->
        lru_unlink t cold;
        Hashtbl.remove cold.owner cold.nkey;
        t.lru_size <- t.lru_size - 1;
        t.evictions <- t.evictions + 1

(* Tree stamps are part of game keys, so worker views must agree with
   the root on them: stamping always happens on the root, under its
   lock. *)
let stamp_of t tree =
  let r = root t in
  with_lock r.lock @@ fun () ->
  match List.find_opt (fun (tr, _) -> tr == tree) r.stamps with
  | Some (_, id) -> id
  | None ->
      let id = List.length r.stamps in
      r.stamps <- (tree, id) :: r.stamps;
      id

(* Compile the child test for (subtree, n): the union game
   [(pat(T') ∪ pat(n), vars(T')) →µ_{k+1} G] splits exactly into
   (1) every triple of pat(T') — ground under µ — being in G, and
   (2) the game on [(pat(n), vars(T') ∩ vars(pat n))] with µ restricted,
   because after freezing µ the free variables and non-ground patterns
   of the union are precisely those of pat(n). *)
let compile_game t ~k tree subtree n =
  let dict = Encoded.Encoded_graph.dictionary t.enc in
  let anchor_pat = Wdpt.Subtree.pat subtree in
  let child_pat = Wdpt.Pattern_tree.pat tree n in
  let anchor_params =
    Array.of_list (Variable.Set.elements (Wdpt.Subtree.vars subtree))
  in
  let idx = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace idx v i) anchor_params;
  let apos_of = function
    | Term.Iri _ as term -> (
        match Dictionary.find dict term with
        | Some id -> C id
        | None -> C Encoded.Encoded_pebble.unknown_id)
    | Term.Var v -> V (Hashtbl.find idx v)
  in
  let anchor =
    Array.of_list
      (List.map
         (fun tr ->
           (apos_of tr.Triple.s, apos_of tr.Triple.p, apos_of tr.Triple.o))
         (Tgraphs.Tgraph.triples anchor_pat))
  in
  let shared =
    Variable.Set.inter (Wdpt.Subtree.vars subtree)
      (Tgraphs.Tgraph.vars child_pat)
  in
  let game =
    Encoded.Encoded_pebble.compile
      ?unary:(if t.memo then Some t.unary else None)
      ~k:(k + 1)
      (Tgraphs.Gtgraph.make child_pat shared)
      t.enc
  in
  t.compiled <- t.compiled + 1;
  {
    anchor_params;
    anchor;
    game;
    game_params = Encoded.Encoded_pebble.params game;
    verdicts = Hashtbl.create 256;
    slots = None;
  }

let game_for t ~k tree subtree n =
  if not t.memo then compile_game t ~k tree subtree n
  else begin
    let key =
      {
        stamp = stamp_of t tree;
        members = Wdpt.Subtree.members subtree;
        child = n;
        key_k = k;
      }
    in
    (* compile-or-lookup on the root is serialised under its lock; the
       compiled game (anchor, game, params) is immutable afterwards and
       safe to share across domains *)
    let shared_game r =
      with_lock r.lock @@ fun () ->
      match Hashtbl.find_opt r.games key with
      | Some g -> g
      | None ->
          let g = compile_game r ~k tree subtree n in
          Hashtbl.add r.games key g;
          g
    in
    match t.parent with
    | None -> shared_game t
    | Some r -> (
        (* the view's own table is domain-private, so the fast path
           needs no lock *)
        match Hashtbl.find_opt t.games key with
        | Some g -> g
        | None ->
            (* private verdict table and slot memo over the shared
               compiled game *)
            let g =
              { (shared_game r) with verdicts = Hashtbl.create 256; slots = None }
            in
            Hashtbl.add t.games key g;
            g)
  end

let id_of_var dict mu v =
  match Sparql.Mapping.find v mu with
  | None -> invalid_arg "Pebble_cache.child_test: µ does not cover the subtree"
  | Some iri -> (
      match Dictionary.find dict (Term.Iri iri) with
      | Some id -> id
      | None -> Encoded.Encoded_pebble.unknown_id)

(* The shared back half of the child test: anchor triples checked with
   grounded ids, then the verdict memo / kernel run. [mu_ids] is a thunk
   so the mapping-level caller keeps its dictionary lookups lazy on
   anchor failure. *)
let run_child_test t ~budget cg ~anchor_ids ~mu_ids =
  let value = function C id -> id | V j -> anchor_ids.(j) in
  let anchor_ok =
    Array.for_all
      (fun (a, b, c) ->
        Budget.tick budget;
        Encoded.Encoded_graph.mem t.enc (value a, value b, value c))
      cg.anchor
  in
  if not anchor_ok then false
  else begin
    let mu_ids = mu_ids () in
    let memo_key = Array.to_list mu_ids in
    match
      if t.memo then Hashtbl.find_opt cg.verdicts memo_key else None
    with
    | Some node ->
        t.hits <- t.hits + 1;
        lru_touch t node;
        Budget.tick budget;
        node.verdict
    | None ->
        t.misses <- t.misses + 1;
        let before = Encoded.Encoded_pebble.stats_families_explored () in
        let verdict = Encoded.Encoded_pebble.run ~budget cg.game ~mu:mu_ids in
        t.families <-
          t.families + (Encoded.Encoded_pebble.stats_families_explored () - before);
        if t.memo then begin
          let node =
            {
              nkey = memo_key;
              verdict;
              owner = cg.verdicts;
              prev = None;
              next = None;
            }
          in
          Hashtbl.add cg.verdicts memo_key node;
          lru_insert t node
        end;
        verdict
  end

let child_test t ?(budget = Budget.unlimited) ~k tree mu subtree n =
  if k < 1 then invalid_arg "Pebble_game.wins: k must be at least 1";
  let cg = game_for t ~k tree subtree n in
  let dict = Encoded.Encoded_graph.dictionary t.enc in
  let anchor_ids = Array.map (id_of_var dict mu) cg.anchor_params in
  run_child_test t ~budget cg ~anchor_ids ~mu_ids:(fun () ->
      Array.map (id_of_var dict mu) cg.game_params)

let slots_for cg vars =
  match cg.slots with
  | Some (v, a, g) when v == vars -> (a, g)
  | _ ->
      let slot_of v =
        let rec go i =
          if i >= Array.length vars then
            invalid_arg
              (Fmt.str
                 "Pebble_cache.stage_child_test_ids: variable %a missing from \
                  the table"
                 Variable.pp v)
          else if Variable.equal vars.(i) v then i
          else go (i + 1)
        in
        go 0
      in
      let a = Array.map slot_of cg.anchor_params in
      let g = Array.map slot_of cg.game_params in
      cg.slots <- Some (vars, a, g);
      (a, g)

let stage_child_test_ids t ?(budget = Budget.unlimited) ~k tree ~vars subtree
    n =
  if k < 1 then invalid_arg "Pebble_game.wins: k must be at least 1";
  let stage () =
    let cg = game_for t ~k tree subtree n in
    let anchor_slots, game_slots = slots_for cg vars in
    (cg, anchor_slots, game_slots)
  in
  (* [memo:false] means no reuse at all (the ablation baseline), so the
     game must be recompiled per candidate, not once per batch *)
  let staged = if t.memo then Some (stage ()) else None in
  fun assignment ->
    let cg, anchor_slots, game_slots =
      match staged with Some s -> s | None -> stage ()
    in
    let anchor_ids = Array.map (Array.get assignment) anchor_slots in
    run_child_test t ~budget cg ~anchor_ids ~mu_ids:(fun () ->
        Array.map (Array.get assignment) game_slots)
