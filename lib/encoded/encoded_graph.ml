type predicate_stats = {
  triples : int;
  distinct_subjects : int;
  distinct_objects : int;
}

(* One sorted index permutation, behind a backend the query kernels never
   see through: either a heap array of id triples (built by [canonical])
   or a closure-provided flat view (an mmap'd section of a compiled
   store, [of_views] — possibly an overlay merging a base store with
   delta segments). Every access below goes through [clen], [load] and
   [compare_at], so binary search, range iteration and the statistics
   scans are byte-for-byte the same code on both backends. What a probe costs is the
   comparison and the read behind it: a polymorphic [compare] on a
   freshly rotated tuple, a tuple built per read, or a Bigarray section
   read at an unknown kind (a C call per element) each cost several
   times the whole search. So a view compares a triple's key against a
   probe's in place, reading as few ids as the comparison needs, in one
   call per search step ([fcompare]), and the store types its sections.
   A range walk or a scan reads a whole triple in one call into an int
   array of its own ([fload]). *)
type flat_view = {
  fn : int;
  fload : int -> int array -> unit;
  fcompare : int -> int -> int -> int -> int;
}

type cells = Heap of (int * int * int) array | View of flat_view

let clen = function Heap a -> Array.length a | View v -> v.fn

(* The [i]-th triple of [c] into [b.(0)], [b.(1)], [b.(2)]. *)
let load c i (b : int array) =
  match c with
  | Heap a ->
      let s, p, o = a.(i) in
      b.(0) <- s;
      b.(1) <- p;
      b.(2) <- o
  | View v -> v.fload i b

let cget c i =
  match c with
  | Heap a -> a.(i)
  | View v ->
      let b = Array.make 3 0 in
      v.fload i b;
      (b.(0), b.(1), b.(2))

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

type t = {
  identity : int;
      (* heap stores: the source graph's positive Graph.epoch; mapped
         stores: the negative content-stamp identity — either way, what
         every cross-evaluation cache keys on *)
  dict : Rdf.Dictionary.t;
  (* the three permutations, each sorted by its [perm] key *)
  spo : cells;
  pos : cells;
  osp : cells;
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

(* The [perm] key of the [i]-th triple of [c] against (k1, k2, k3). A
   view is sorted by [perm], the order it compares in. *)
let compare_at c perm i k1 k2 k3 =
  match c with
  | Heap a -> compare_key perm a.(i) k1 k2 k3
  | View v -> v.fcompare i k1 k2 k3

let compare_view v perm i (s, p, o) =
  match perm with
  | Spo -> v.fcompare i s p o
  | Pos -> v.fcompare i p o s
  | Osp -> v.fcompare i o s p

let view_of_triples perm a =
  {
    fn = Array.length a;
    fload =
      (fun i (b : int array) ->
        let s, p, o = a.(i) in
        b.(0) <- s;
        b.(1) <- p;
        b.(2) <- o);
    fcompare = (fun i k1 k2 k3 -> compare_key perm a.(i) k1 k2 k3);
  }

(* ------------------------------------------------------------------ *)
(* The canonical builder                                               *)
(* ------------------------------------------------------------------ *)

(* One stable counting-sort pass: [src] reordered into [dst] by the key
   [keys.((stride * j) + at)] of each element [j], every key in
   [0, range). O(n + range). *)
let counting_pass ~range keys ~stride ~at src dst =
  let n = Array.length src in
  let count = Array.make (range + 1) 0 in
  for i = 0 to n - 1 do
    let k = keys.((stride * src.(i)) + at) + 1 in
    count.(k) <- count.(k) + 1
  done;
  for k = 1 to range do
    count.(k) <- count.(k) + count.(k - 1)
  done;
  for i = 0 to n - 1 do
    let j = src.(i) in
    let k = keys.((stride * j) + at) in
    dst.(count.(k)) <- j;
    count.(k) <- count.(k) + 1
  done

(* [perm] stably reordered by [key.(perm.(i))], into a fresh array. *)
let sort_by ~range key perm =
  let out = Array.make (Array.length perm) 0 in
  counting_pass ~range key ~stride:1 ~at:0 perm out;
  out

(* Positions [0, n) ordered lexicographically by (k1, k2, k3): an LSD
   radix sort, least significant column first. *)
let sort_positions ~range k1 k2 k3 =
  Array.init (Array.length k1) Fun.id
  |> sort_by ~range k3
  |> sort_by ~range k2
  |> sort_by ~range k1

(* The three permutations of the id columns [ss, ps, os] (ids in
   [0, range)), sharing one tuple per triple. A stable pass over a
   sorted order rotates its key: SPO order sorted by o is OSP order,
   and that sorted by p is POS order — five passes in all. *)
let permutations ~range ss ps os =
  let tuples =
    Array.init (Array.length ss) (fun i -> (ss.(i), ps.(i), os.(i)))
  in
  let spo = sort_positions ~range ss ps os in
  let osp = sort_by ~range os spo in
  let pos = sort_by ~range ps osp in
  let cells perm = Heap (Array.map (fun i -> tuples.(i)) perm) in
  (cells spo, cells pos, cells osp)

let make ~identity ~dict ?seed (spo, pos, osp) =
  {
    identity;
    dict;
    spo;
    pos;
    osp;
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
    (permutations ~range:!next (cut ss) (cut ps) (cut os))

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
  make ~identity ~dict ?seed:stats (View spo, View pos, View osp)

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

let cardinal t = clen t.spo
let nth_spo t i = cget t.spo i
let nth_pos t i = cget t.pos i
let nth_osp t i = cget t.osp i

(* First index of [lo, hi) whose [perm] key is >= (k1, k2, k3). *)
let lower_bound c perm lo hi k1 k2 k3 =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if compare_at c perm mid k1 k2 k3 < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index of [lo, hi) whose [perm] key is > (k1, k2, k3). *)
let upper_bound c perm lo hi k1 k2 k3 =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if compare_at c perm mid k1 k2 k3 <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* A probe names each position by an id, or [unbound]. Any other
   negative id (a term absent from the dictionary) stays bound and
   matches nothing. *)
let unbound = -1

(* The permutation whose sort order makes the bound positions of a probe
   a prefix of its key. (s, o)-bound must use OSP: in SPO the object
   would not be part of the prefix and the range would over-approximate.
   The probe's key under it is the rotated (s, p, o), unbound positions
   last. *)
let perm_of s p o =
  if s <> unbound then if p = unbound && o <> unbound then Osp else Spo
  else if p <> unbound then Pos
  else if o <> unbound then Osp
  else Spo

let cells_of t = function Spo -> t.spo | Pos -> t.pos | Osp -> t.osp

let iter_index t perm f =
  match cells_of t perm with
  | Heap a -> Array.iter (fun (s, p, o) -> f s p o) a
  | View v ->
      let b = Array.make 3 0 in
      for i = 0 to v.fn - 1 do
        v.fload i b;
        f b.(0) b.(1) b.(2)
      done

let key1 perm s p o = match perm with Spo -> s | Pos -> p | Osp -> o
let key2 perm s p o = match perm with Spo -> p | Pos -> o | Osp -> s
let key3 perm s p o = match perm with Spo -> o | Pos -> s | Osp -> p

(* An unbound key position spans every int. *)
let low k = if k = unbound then min_int else k
let high k = if k = unbound then max_int else k

(* The half-open range [start, stop) of the triples of [c] (sorted by
   [perm]) whose key starts with the probe's bound prefix. *)
let range_start c perm k1 k2 k3 =
  lower_bound c perm 0 (clen c) (low k1) (low k2) (low k3)

let range_stop c perm start k1 k2 k3 =
  upper_bound c perm start (clen c) (high k1) (high k2) (high k3)

(* A walk over the triples agreeing with one probe: the range
   [at + 1, stop) of [cells] still to visit, and the triple at [at]
   loaded into [ids]. A join keeps one cursor per depth, so walking a
   range allocates nothing. *)
type cursor = {
  store : t;
  mutable cells : cells;
  mutable at : int;
  mutable stop : int;
  ids : int array;
}

let cursor t =
  { store = t; cells = Heap [||]; at = 0; stop = 0; ids = Array.make 3 0 }

let seek cur s p o =
  let perm = perm_of s p o in
  let c = cells_of cur.store perm in
  let k1 = key1 perm s p o and k2 = key2 perm s p o and k3 = key3 perm s p o in
  let start = range_start c perm k1 k2 k3 in
  cur.cells <- c;
  cur.at <- start - 1;
  cur.stop <- range_stop c perm start k1 k2 k3

let next cur =
  let at = cur.at + 1 in
  cur.at <- at;
  if at < cur.stop then begin
    load cur.cells at cur.ids;
    true
  end
  else false

let subject cur = cur.ids.(0)
let predicate cur = cur.ids.(1)
let object_ cur = cur.ids.(2)

let mem t s p o =
  let n = clen t.spo in
  let i = lower_bound t.spo Spo 0 n s p o in
  i < n && compare_at t.spo Spo i s p o = 0

let iter_matching t s p o f =
  let cur = cursor t in
  seek cur s p o;
  while next cur do
    f (subject cur) (predicate cur) (object_ cur)
  done

let match_count t s p o =
  let perm = perm_of s p o in
  let c = cells_of t perm in
  let k1 = key1 perm s p o and k2 = key2 perm s p o and k3 = key3 perm s p o in
  let start = range_start c perm k1 k2 k3 in
  range_stop c perm start k1 k2 k3 - start

(* ------------------------------------------------------------------ *)
(* Planner statistics                                                  *)
(* ------------------------------------------------------------------ *)

(* Distinct values of position [k] within [start, stop) of a sorted
   array. When the position is the array's primary sort key the
   distinct values form contiguous runs and a single linear pass counts
   them; otherwise the column is extracted, sorted, and its runs counted.
   Both are one-shot costs — every entry point below memoizes, and
   compiled stores carry the figures precomputed ([stats_seed]) so the
   scans never touch the mmap at all. *)
let count_runs k arr start stop =
  let n = ref 0 and prev = ref min_int and b = Array.make 3 0 in
  for i = start to stop - 1 do
    load arr i b;
    let v = b.(k) in
    if !n = 0 || v <> !prev then begin
      incr n;
      prev := v
    end
  done;
  !n

let count_distinct_unsorted k arr start stop =
  let b = Array.make 3 0 in
  let col =
    Array.init (stop - start) (fun i ->
        load arr (start + i) b;
        b.(k))
  in
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

let predicate_stats t p =
  match Hashtbl.find_opt t.pstats p with
  | Some s -> s
  | None ->
      let seeded =
        match t.seed with None -> None | Some seed -> seed.seed_predicate p
      in
      let s =
        match seeded with
        | Some s -> s
        | None ->
            (* pos stores raw (s, p, o) tuples sorted by (p, o, s): the
               predicate's triples are one contiguous block, within which
               distinct objects are runs of the o column; distinct
               subjects need a sort of the s column. *)
            let start = range_start t.pos Pos p unbound unbound in
            let stop = range_stop t.pos Pos start p unbound unbound in
            {
              triples = stop - start;
              distinct_objects = count_runs 2 t.pos start stop;
              distinct_subjects = count_distinct_unsorted 0 t.pos start stop;
            }
      in
      Hashtbl.replace t.pstats p s;
      s

let distinct_subjects t =
  if t.subject_count < 0 then
    t.subject_count <-
      (match t.seed with
      | Some { seed_subjects = Some n; _ } -> n
      | _ -> count_runs 0 t.spo 0 (clen t.spo));
  t.subject_count

let distinct_objects t =
  if t.object_count < 0 then
    t.object_count <-
      (match t.seed with
      | Some { seed_objects = Some n; _ } -> n
      | _ ->
          (* osp is sorted by (o, s, p), so o runs are contiguous *)
          count_runs 2 t.osp 0 (clen t.osp));
  t.object_count

let distinct_predicates t =
  if t.predicate_count < 0 then
    t.predicate_count <-
      (match t.seed with
      | Some { seed_predicates = Some n; _ } -> n
      | _ -> count_runs 1 t.pos 0 (clen t.pos));
  t.predicate_count
