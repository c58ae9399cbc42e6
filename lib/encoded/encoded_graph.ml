type predicate_stats = {
  triples : int;
  distinct_subjects : int;
  distinct_objects : int;
}

(* One sorted index permutation, behind a backend the query kernels never
   see through: either a heap array of id triples (built by [canonical])
   or a closure-provided flat view (an mmap'd section of a compiled
   store, [of_views] — possibly an overlay merging a base store with
   delta segments). Every access below goes through [clen]/[cget], so
   binary search, range iteration and the statistics scans are byte-for-
   byte the same code on both backends. What a probe costs is the
   comparison and the read behind [fget]: a polymorphic [compare] on a
   freshly rotated tuple, or a Bigarray section read at an unknown kind
   (a C call per element), costs several times the whole search, so the
   keys below are compared as ints in place and the store types its
   sections. *)
type flat_view = { fn : int; fget : int -> int * int * int }

type cells = Heap of (int * int * int) array | View of flat_view

let clen = function Heap a -> Array.length a | View v -> v.fn
let cget c i = match c with Heap a -> a.(i) | View v -> v.fget i

(* Statistics a compiled store carries precomputed: the save-time cost
   buys O(1) plan-time answers without scanning the mmap'd arrays. The
   per-predicate closure may return [None] (unknown predicate, or a
   predicate whose figures went stale under a delta overlay), which
   falls back to the exact scan path; [None] globals likewise fall back
   to a one-shot counting scan. *)
type stats_seed = {
  seed_subjects : int option;
  seed_objects : int option;
  seed_predicates : int option;
  seed_predicate : int -> predicate_stats option;
}

(* The three permutations of one flat (non-sharded) store. *)
type arrays = { a_spo : cells; a_pos : cells; a_osp : cells }

type t = {
  identity : int;
      (* heap stores: the source graph's positive Graph.epoch; mapped
         stores: the negative content-stamp identity (for a shard set,
         of the manifest stamp folding the member stamps) — either way,
         what every cross-evaluation cache keys on *)
  dict : Rdf.Dictionary.t;
  rep : rep;
  seed : stats_seed option;
  (* Planner statistics, derived lazily from the sorted arrays above and
     memoized on the store (stores are immutable, so once computed a
     figure never goes stale). The per-predicate table makes repeated
     optimizer calls O(1) after the first query touching a predicate. *)
  pstats : (int, predicate_stats) Hashtbl.t;
  mutable subject_count : int;  (* -1 = not yet computed *)
  mutable object_count : int;
  mutable predicate_count : int;
}

and rep =
  | Flat of arrays
  | Union of union_info
      (* a shard set: member stores split by predicate, loaded lazily —
         a query bound on a predicate touches only that predicate's
         member *)

and union_info = {
  u_members : member array;  (* indexed by slice *)
  u_owner : int -> int;  (* predicate id -> owning member index *)
  u_total : int;  (* live triples across all members *)
  u_lock : Mutex.t;
      (* guards member forcing, the touched flags and [u_merged]:
         server threads route queries concurrently, and OCaml [Lazy]
         is not safe under concurrent forcing *)
  mutable u_merged : arrays option;
      (* globally sorted permutations, materialized only if something
         needs positional access across the whole set (the writer,
         term-level decode) — never on the routed query path *)
}

and member = { m_store : t Lazy.t; mutable m_touched : bool }

(* The sort order of a permutation: its key is the triple rotated so
   that the named positions come first. *)
type perm = Spo | Pos | Osp

let key perm ((s, p, o) as t) =
  match perm with Spo -> t | Pos -> (p, o, s) | Osp -> (o, s, p)

let compare3 (a1 : int) (a2 : int) (a3 : int) (b1 : int) (b2 : int)
    (b3 : int) =
  if a1 <> b1 then if a1 < b1 then -1 else 1
  else if a2 <> b2 then if a2 < b2 then -1 else 1
  else if a3 <> b3 then if a3 < b3 then -1 else 1
  else 0

(* The [perm] key of the raw triple (s, p, o) against (k1, k2, k3),
   without building the rotated tuple. *)
let compare_key perm (s, p, o) k1 k2 k3 =
  match perm with
  | Spo -> compare3 s p o k1 k2 k3
  | Pos -> compare3 p o s k1 k2 k3
  | Osp -> compare3 o s p k1 k2 k3

let compare_in perm a (s, p, o) =
  match perm with
  | Spo -> compare_key perm a s p o
  | Pos -> compare_key perm a p o s
  | Osp -> compare_key perm a o s p

(* ------------------------------------------------------------------ *)
(* The canonical builder                                               *)
(* ------------------------------------------------------------------ *)

(* One stable counting-sort pass: [perm] reordered by [key.(perm.(i))],
   every key in [0, range). O(n + range). *)
let counting_pass ~range key perm =
  let n = Array.length perm in
  let count = Array.make (range + 1) 0 in
  for i = 0 to n - 1 do
    let k = key.(perm.(i)) + 1 in
    count.(k) <- count.(k) + 1
  done;
  for k = 1 to range do
    count.(k) <- count.(k) + count.(k - 1)
  done;
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    let j = perm.(i) in
    let k = key.(j) in
    out.(count.(k)) <- j;
    count.(k) <- count.(k) + 1
  done;
  out

(* Positions [0, n) ordered lexicographically by (k1, k2, k3): an LSD
   radix sort, least significant column first. *)
let sort_positions ~range k1 k2 k3 =
  Array.init (Array.length k1) Fun.id
  |> counting_pass ~range k3
  |> counting_pass ~range k2
  |> counting_pass ~range k1

(* The three permutations of the id columns [ss, ps, os] (ids in
   [0, range)), sharing one tuple per triple. A stable pass over a
   sorted order rotates its key: SPO order sorted by o is OSP order,
   and that sorted by p is POS order — five passes in all. *)
let permutations ~range ss ps os =
  let tuples =
    Array.init (Array.length ss) (fun i -> (ss.(i), ps.(i), os.(i)))
  in
  let spo = sort_positions ~range ss ps os in
  let osp = counting_pass ~range os spo in
  let pos = counting_pass ~range ps osp in
  let cells perm = Heap (Array.map (fun i -> tuples.(i)) perm) in
  { a_spo = cells spo; a_pos = cells pos; a_osp = cells osp }

let make ~identity ~dict ?seed rep =
  {
    identity;
    dict;
    rep;
    seed;
    pstats = Hashtbl.create 16;
    subject_count = -1;
    object_count = -1;
    predicate_count = -1;
  }

let canonical ~identity dict ids =
  let m = Rdf.Dictionary.size dict in
  Array.iter
    (fun (s, p, o) ->
      if s < 0 || s >= m || p < 0 || p >= m || o < 0 || o >= m then
        invalid_arg "Encoded_graph.canonical: id outside the dictionary")
    ids;
  (* Rank every id by its term (equal terms share a rank), so that
     ordering by ranks is ordering by [Rdf.Term.compare]. *)
  let terms = Array.init m (Rdf.Dictionary.term_of dict) in
  let by_term = Array.init m Fun.id in
  Array.sort (fun a b -> Rdf.Term.compare terms.(a) terms.(b)) by_term;
  let rank = Array.make m 0 and ranks = ref 0 in
  let term_of_rank = Array.make m (Rdf.Term.iri "x:x") in
  Array.iteri
    (fun i id ->
      if i > 0 && Rdf.Term.compare terms.(by_term.(i - 1)) terms.(id) <> 0
      then incr ranks;
      rank.(id) <- !ranks;
      term_of_rank.(!ranks) <- terms.(id))
    by_term;
  let ranks = if m = 0 then 0 else !ranks + 1 in
  let col f = Array.map (fun t -> rank.(f t)) ids in
  let rs = col (fun (s, _, _) -> s)
  and rp = col (fun (_, p, _) -> p)
  and ro = col (fun (_, _, o) -> o) in
  (* [Rdf.Triple.compare] order, duplicates adjacent. *)
  let order = sort_positions ~range:ranks rs rp ro in
  (* Fresh ids by first encounter in that order — subject, predicate,
     object — which is what interning [Rdf.Graph.triples] assigns, so
     the ids (and every byte written from them) are those of a compile
     of the same triple set. Ranks no live triple uses get no id. The
     three [let]s below fix that order, which a tuple would not. *)
  let fresh = Array.make ranks (-1) and next = ref 0 in
  let fresh_terms = ref [] in
  let id r =
    if fresh.(r) < 0 then begin
      fresh.(r) <- !next;
      fresh_terms := term_of_rank.(r) :: !fresh_terms;
      incr next
    end;
    fresh.(r)
  in
  let n = Array.length order in
  let ss = Array.make n 0 and ps = Array.make n 0 and os = Array.make n 0 in
  let live = ref 0 in
  Array.iteri
    (fun k i ->
      let dup =
        k > 0
        &&
        let j = order.(k - 1) in
        rs.(i) = rs.(j) && rp.(i) = rp.(j) && ro.(i) = ro.(j)
      in
      if not dup then begin
        let s = id rs.(i) in
        let p = id rp.(i) in
        let o = id ro.(i) in
        ss.(!live) <- s;
        ps.(!live) <- p;
        os.(!live) <- o;
        incr live
      end)
    order;
  let cut a = Array.sub a 0 !live in
  make ~identity
    ~dict:(Rdf.Dictionary.of_terms (List.rev !fresh_terms))
    (Flat (permutations ~range:!next (cut ss) (cut ps) (cut os)))

let of_triples ~identity triples =
  let dict = Rdf.Dictionary.create () in
  let ids =
    Array.of_list (List.map (Rdf.Dictionary.encode_triple dict) triples)
  in
  canonical ~identity dict ids

let of_graph graph =
  of_triples ~identity:(Rdf.Graph.epoch graph) (Rdf.Graph.triples graph)

let of_views ~identity ~dict ~spo ~pos ~osp ?stats () =
  if spo.fn <> pos.fn || pos.fn <> osp.fn then
    invalid_arg "Encoded_graph.of_views: permutations disagree on length";
  make ~identity ~dict ?seed:stats
    (Flat { a_spo = View spo; a_pos = View pos; a_osp = View osp })

let union ~identity ~dict ~members ~owner ~total ?stats () =
  if total < 0 then invalid_arg "Encoded_graph.union: negative total";
  if Array.length members = 0 then
    invalid_arg "Encoded_graph.union: no members";
  make ~identity ~dict ?seed:stats
    (Union
       {
         u_members =
           Array.map (fun m -> { m_store = m; m_touched = false }) members;
         u_owner = owner;
         u_total = total;
         u_lock = Mutex.create ();
         u_merged = None;
       })

(* Bounded MRU memo for [of_graph], keyed on the graph's epoch: graphs
   are immutable and each constructed store carries a globally unique
   epoch, so epoch equality is exactly "the same store" — stronger than
   the physical-identity key this cache used before (it now also hits
   when the same graph value flows through a copy-preserving pipeline). *)
let cache_capacity = 8
let cache : (int * t) list ref = ref []

(* Loaded persistent stores, outside the MRU churn and keyed on the
   graph handle they back: a deferred handle resolves here first, so
   evaluating through it runs on the mmap'd arrays instead of forcing
   the handle's term-level decode. The table is ephemeral — an entry
   lives exactly as long as its handle is reachable, so a server that
   reloads its store again and again keeps only the stores some handle
   still refers to. Keys compare physically (two loads of one file are
   two handles, each pinning its own store) and hash on the epoch. A
   forced [deferred] lazy drops its thunk, so the handle itself — not
   the thunk — is the key. Dropping an entry never unmaps anything a
   live evaluation still sees: every borrowed view is a closure that
   keeps its mapping reachable on its own. *)
module Registered = Ephemeron.K1.Make (struct
  type t = Rdf.Graph.t

  let equal = ( == )
  let hash g = Hashtbl.hash (Rdf.Graph.epoch g)
end)

let registered : t Registered.t = Registered.create 8

(* Guards [cache] and [registered]: server threads resolve stores
   through [of_graph_cached] while another thread may [register] or
   [clear_cache], so every touch of either table is serialized. *)
let cache_lock = Mutex.create ()

let register graph t =
  Mutex.protect cache_lock (fun () -> Registered.replace registered graph t)

let registered_live () =
  Mutex.protect cache_lock (fun () ->
      Registered.clean registered;
      Registered.length registered)

let clear_cache () =
  Mutex.protect cache_lock (fun () ->
      cache := [];
      Registered.reset registered)

let of_graph_cached graph =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let key = Rdf.Graph.epoch graph in
  let cached =
    Mutex.protect cache_lock (fun () ->
        match Registered.find_opt registered graph with
        | Some enc -> Some enc
        | None -> (
            match List.find_opt (fun (e, _) -> e = key) !cache with
            | Some (_, enc) ->
                (* move to front *)
                cache :=
                  (key, enc) :: List.filter (fun (e, _) -> e <> key) !cache;
                Some enc
            | None -> None))
  in
  match cached with
  | Some enc -> enc
  | None ->
      (* Encode outside the lock — sorting three permutations can be
         long, and a concurrent duplicate build is only wasted work. *)
      let enc = of_graph graph in
      Mutex.protect cache_lock (fun () ->
          match
            ( Registered.find_opt registered graph,
              List.find_opt (fun (e, _) -> e = key) !cache )
          with
          | Some winner, _ | None, Some (_, winner) ->
              (* another domain finished (or registered) first: keep one
                 canonical store per identity so memo hits stay shared *)
              winner
          | None, None ->
              cache := take cache_capacity ((key, enc) :: !cache);
              enc)

let epoch t = t.identity
let dictionary t = t.dict

(* Force one member (clamping a wild owner index to member 0, whose
   ranges for a foreign predicate are simply empty) and record the touch
   for the lazy-mapping ablation. *)
let force_member u k =
  let k = if k < 0 || k >= Array.length u.u_members then 0 else k in
  Mutex.protect u.u_lock (fun () ->
      let m = u.u_members.(k) in
      m.m_touched <- true;
      Lazy.force m.m_store)

let cardinal t =
  match t.rep with Flat a -> clen a.a_spo | Union u -> u.u_total

(* The globally sorted permutations of a store. For a flat store these
   are its arrays; for a shard set they are a one-shot k-way merge over
   the members, materialized under the union lock — only positional
   access ([nth_*]: the writer, term-level decode, tests) pays for it,
   the routed query path never does. *)
let rec arrays t =
  match t.rep with
  | Flat a -> a
  | Union u ->
      Mutex.protect u.u_lock (fun () ->
          match u.u_merged with
          | Some a -> a
          | None ->
              let spos =
                Array.map
                  (fun m ->
                    m.m_touched <- true;
                    (arrays (Lazy.force m.m_store)).a_spo)
                  u.u_members
              in
              let n = u.u_total in
              if Array.fold_left (fun k c -> k + clen c) 0 spos <> n then
                invalid_arg
                  "Encoded_graph: shard members disagree with union total";
              let ss = Array.make n 0 and ps = Array.make n 0 in
              let os = Array.make n 0 and w = ref 0 in
              Array.iter
                (fun c ->
                  for i = 0 to clen c - 1 do
                    let s, p, o = cget c i in
                    ss.(!w) <- s;
                    ps.(!w) <- p;
                    os.(!w) <- o;
                    incr w
                  done)
                spos;
              (* member ids are global, so one id range sorts them all *)
              let a =
                permutations ~range:(Rdf.Dictionary.size t.dict) ss ps os
              in
              u.u_merged <- Some a;
              a)

let nth_spo t i = cget (arrays t).a_spo i
let nth_pos t i = cget (arrays t).a_pos i
let nth_osp t i = cget (arrays t).a_osp i

let members_touched t =
  match t.rep with
  | Flat _ -> None
  | Union u ->
      Some
        (Mutex.protect u.u_lock (fun () ->
             Array.fold_left
               (fun n m -> if m.m_touched then n + 1 else n)
               0 u.u_members))

(* First index of [lo, hi) whose [perm] key is >= (k1, k2, k3). *)
let lower_bound arr perm lo hi k1 k2 k3 =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if compare_key perm (cget arr mid) k1 k2 k3 < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* First index of [lo, hi) whose [perm] key is > (k1, k2, k3). *)
let upper_bound arr perm lo hi k1 k2 k3 =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if compare_key perm (cget arr mid) k1 k2 k3 <= 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* The half-open range of triples whose [perm] key starts with the bound
   prefix (k1, maybe k2, maybe k3): an unbound key position spans every
   int. *)
let range arr perm k1 k2 k3 =
  let lo2, hi2 = match k2 with Some k -> (k, k) | None -> (min_int, max_int) in
  let lo3, hi3 = match k3 with Some k -> (k, k) | None -> (min_int, max_int) in
  let start = lower_bound arr perm 0 (clen arr) k1 lo2 lo3 in
  (start, upper_bound arr perm start (clen arr) k1 hi2 hi3)

(* Pick the permutation whose sort order makes the bound positions a
   prefix. (s,o)-bound must use OSP: in SPO the object would not be part
   of the prefix and the range would over-approximate. *)
let choose a ?s ?p ?o () =
  match s, p, o with
  | Some s, Some p, _ -> Some (a.a_spo, Spo, s, Some p, o)
  | Some s, None, Some o -> Some (a.a_osp, Osp, o, Some s, None)
  | Some s, None, None -> Some (a.a_spo, Spo, s, None, None)
  | None, Some p, _ -> Some (a.a_pos, Pos, p, o, None)
  | None, None, Some o -> Some (a.a_osp, Osp, o, None, None)
  | None, None, None -> None

(* Query entry points: a flat store binary-searches its own arrays; a
   shard set routes predicate-bound patterns to the owning member (the
   only one whose pages the probe faults in) and fans predicate-free
   patterns out over every member. *)

let rec mem t (s, p, o) =
  match t.rep with
  | Union u -> mem (force_member u (u.u_owner p)) (s, p, o)
  | Flat a ->
      let n = clen a.a_spo in
      let i = lower_bound a.a_spo Spo 0 n s p o in
      i < n && compare_key Spo (cget a.a_spo i) s p o = 0

let rec iter_matching t ?s ?p ?o ~f () =
  match t.rep with
  | Union u -> (
      match p with
      | Some pid -> iter_matching (force_member u (u.u_owner pid)) ?s ~p:pid ?o ~f ()
      | None ->
          Array.iteri
            (fun k _ -> iter_matching (force_member u k) ?s ?o ~f ())
            u.u_members)
  | Flat a -> (
      match choose a ?s ?p ?o () with
      | None ->
          for i = 0 to clen a.a_spo - 1 do
            f (cget a.a_spo i)
          done
      | Some (arr, perm, k1, k2, k3) ->
          let start, stop = range arr perm k1 k2 k3 in
          for i = start to stop - 1 do
            f (cget arr i)
          done)

let matching t ?s ?p ?o () =
  let acc = ref [] in
  iter_matching t ?s ?p ?o ~f:(fun triple -> acc := triple :: !acc) ();
  !acc

let rec match_count t ?s ?p ?o () =
  match t.rep with
  | Union u -> (
      match p, s, o with
      | Some pid, _, _ ->
          match_count (force_member u (u.u_owner pid)) ?s ~p:pid ?o ()
      | None, None, None -> u.u_total
      | None, _, _ ->
          let n = ref 0 in
          Array.iteri
            (fun k _ -> n := !n + match_count (force_member u k) ?s ?o ())
            u.u_members;
          !n)
  | Flat a -> (
      match choose a ?s ?p ?o () with
      | None -> clen a.a_spo
      | Some (arr, perm, k1, k2, k3) ->
          let start, stop = range arr perm k1 k2 k3 in
          stop - start)

(* ------------------------------------------------------------------ *)
(* Planner statistics                                                  *)
(* ------------------------------------------------------------------ *)

(* Distinct values of one projected position within [start, stop) of a
   sorted array. When the projection is the array's primary sort key the
   distinct values form contiguous runs and a single linear pass counts
   them; otherwise the column is extracted, sorted, and its runs counted.
   Both are one-shot costs — every entry point below memoizes, and
   compiled stores carry the figures precomputed ([stats_seed]) so the
   scans never touch the mmap at all. *)
let count_runs proj arr start stop =
  let n = ref 0 and prev = ref min_int in
  for i = start to stop - 1 do
    let v = proj (cget arr i) in
    if !n = 0 || v <> !prev then begin
      incr n;
      prev := v
    end
  done;
  !n

let count_distinct_unsorted proj arr start stop =
  let col = Array.init (stop - start) (fun i -> proj (cget arr (start + i))) in
  Array.sort Int.compare col;
  let n = ref 0 and prev = ref min_int in
  Array.iter
    (fun v ->
      if !n = 0 || v <> !prev then begin
        incr n;
        prev := v
      end)
    col;
  !n

let rec predicate_stats t p =
  match Hashtbl.find_opt t.pstats p with
  | Some s -> s
  | None ->
      let s =
        match t.rep with
        | Union u ->
            (* the owning member holds every triple of this predicate,
               so its row (or scan) is exact for the whole set *)
            predicate_stats (force_member u (u.u_owner p)) p
        | Flat a -> (
            let seeded =
              match t.seed with
              | None -> None
              | Some seed -> seed.seed_predicate p
            in
            match seeded with
            | Some s -> s
            | None ->
                (* a_pos stores raw (s, p, o) tuples sorted by (p, o, s):
                   the predicate's triples are one contiguous block,
                   within which distinct objects are runs of the o
                   column; distinct subjects need a sort of the s
                   column. *)
                let start, stop = range a.a_pos Pos p None None in
                {
                  triples = stop - start;
                  distinct_objects =
                    count_runs (fun (_, _, o) -> o) a.a_pos start stop;
                  distinct_subjects =
                    count_distinct_unsorted (fun (s, _, _) -> s) a.a_pos start
                      stop;
                })
      in
      Hashtbl.replace t.pstats p s;
      s

let distinct_subjects t =
  if t.subject_count < 0 then
    t.subject_count <-
      (match t.seed with
      | Some { seed_subjects = Some n; _ } -> n
      | _ ->
          let a = arrays t in
          count_runs (fun (s, _, _) -> s) a.a_spo 0 (clen a.a_spo));
  t.subject_count

let distinct_objects t =
  if t.object_count < 0 then
    t.object_count <-
      (match t.seed with
      | Some { seed_objects = Some n; _ } -> n
      | _ ->
          (* a_osp is sorted by (o, s, p), so o runs are contiguous *)
          let a = arrays t in
          count_runs (fun (_, _, o) -> o) a.a_osp 0 (clen a.a_osp));
  t.object_count

let distinct_predicates t =
  if t.predicate_count < 0 then
    t.predicate_count <-
      (match t.seed with
      | Some { seed_predicates = Some n; _ } -> n
      | _ ->
          let a = arrays t in
          count_runs (fun (_, p, _) -> p) a.a_pos 0 (clen a.a_pos));
  t.predicate_count
