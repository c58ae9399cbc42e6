open Rdf

(* Distinct ids of one result by first sight, in an open-addressing
   table: [keys] holds an id or -1, [firsts.(j)] the id first seen j-th.
   Ids are dense in a store but the table takes any int, so an id is
   mixed before it picks a slot. *)
type ids = {
  mutable keys : int array;
  mutable index : int array;  (* first-seen index of [keys.(h)] *)
  mutable bits : int;
  mutable firsts : int array;
  mutable size : int;
}

let ids_create () =
  let bits = 8 in
  {
    keys = Array.make (1 lsl bits) (-1);
    index = Array.make (1 lsl bits) 0;
    bits;
    firsts = Array.make 64 0;
    size = 0;
  }

let slot bits id = (id * 0x2545F4914F6CDD1D) lsr (63 - bits)

let ids_insert t id j =
  let mask = (1 lsl t.bits) - 1 in
  let h = ref (slot t.bits id) in
  while t.keys.(!h) >= 0 do
    h := (!h + 1) land mask
  done;
  t.keys.(!h) <- id;
  t.index.(!h) <- j

(* At half load the table doubles and every id moves to its new slot. *)
let ids_grow t =
  let keys = t.keys and index = t.index in
  t.bits <- t.bits + 1;
  t.keys <- Array.make (1 lsl t.bits) (-1);
  t.index <- Array.make (1 lsl t.bits) 0;
  for h = 0 to Array.length keys - 1 do
    if keys.(h) >= 0 then ids_insert t keys.(h) index.(h)
  done

(* The first-seen index of [id], which is [>= 0]. *)
let ids_find t id =
  let mask = (1 lsl t.bits) - 1 in
  let h = ref (slot t.bits id) in
  while t.keys.(!h) >= 0 && t.keys.(!h) <> id do
    h := (!h + 1) land mask
  done;
  if t.keys.(!h) = id then t.index.(!h)
  else begin
    let j = t.size in
    if 2 * (j + 1) > 1 lsl t.bits then ids_grow t;
    ids_insert t id j;
    if j = Array.length t.firsts then begin
      let bigger = Array.make (2 * j) 0 in
      Array.blit t.firsts 0 bigger 0 j;
      t.firsts <- bigger
    end;
    t.firsts.(j) <- id;
    t.size <- j + 1;
    j
  end

(* The rows, 32 bits a slot, in chunks of 64 rows. A chunk is written
   only as its rows arrive and is never copied, so the arena touches the
   memory its rows need and no more, and a result of a few short rows
   stays on the minor heap. *)
type arena = {
  width : int;
  mutable chunks : Bytes.t array;
  mutable rows : int;
}

let chunk_rows = 64

(* The byte offset of row [r]'s first slot within its chunk. *)
let row_at a r = 4 * (r land (chunk_rows - 1)) * a.width
let chunk_of a r = a.chunks.(r / chunk_rows)
let get c at k = Int32.to_int (Bytes.get_int32_ne c (at + (4 * k)))
let set c at k v = Bytes.set_int32_ne c (at + (4 * k)) (Int32.of_int v)

(* Rows [i] and [j] agree on every slot. *)
let same_row a i j =
  let ci = chunk_of a i and ai = row_at a i and cj = chunk_of a j
  and aj = row_at a j in
  let k = ref 0 in
  while !k < a.width && get ci ai !k = get cj aj !k do
    incr k
  done;
  !k = a.width

type t = {
  vars : Variable.t array;
  iris : Iri.t array;  (* per rank, in [Iri.compare] order *)
  arena : arena;
      (* the rows as they came, one key a slot: 1 + the rank of a bound
         slot's IRI, and for an unbound slot 0 when no later slot of its
         row is bound and [Array.length iris + 1] when one is. With
         these keys, plain lexicographic int order over a row's slots is
         {!Sparql.Mapping.compare} order: the maps' bindings are
         compared in variable order, which is slot order, a binding
         beats no binding when a later slot is bound (its variable comes
         first), and a map that runs out of bindings first is the
         smaller. *)
  order : int array;
      (* [order.(i)], [i < n]: the arena row that is the i-th distinct
         row in sorted order *)
  n : int;
}

(* Rows as they come, each bound id already replaced by its first-seen
   index. A slot often binds the id it bound in the previous row, so
   each slot remembers its last id and index ([last]: id at [2k], index
   at [2k + 1]) and asks the table only when the id changes. *)
type arrivals = { into : arena; ids : ids; last : int array }

let arrive { into = a; ids; last } row =
  let r = a.rows in
  if r mod chunk_rows = 0 then begin
    let c = r / chunk_rows in
    if c = Array.length a.chunks then begin
      let more = Array.make (max 4 (2 * c)) Bytes.empty in
      Array.blit a.chunks 0 more 0 c;
      a.chunks <- more
    end;
    a.chunks.(c) <- Bytes.create (4 * chunk_rows * a.width)
  end;
  let c = chunk_of a r and at = row_at a r in
  for k = 0 to a.width - 1 do
    let id = row.(k) in
    if id < 0 then set c at k (-1)
    else if id = last.(2 * k) then set c at k last.((2 * k) + 1)
    else begin
      let j = ids_find ids id in
      last.(2 * k) <- id;
      last.((2 * k) + 1) <- j;
      set c at k j
    end
  done;
  a.rows <- r + 1

let of_iter vars iri walk =
  let width = Array.length vars in
  let a = { width; chunks = [||]; rows = 0 } in
  let ids = ids_create () in
  walk (arrive { into = a; ids; last = Array.make (2 * width) (-1) });
  let n = a.rows in
  (* decode each distinct id once and rank the IRIs, so rows sort on
     ints *)
  let m = ids.size in
  let seen = Array.init m (fun j -> iri ids.firsts.(j)) in
  let by_iri = Array.init m Fun.id in
  Array.sort (fun x y -> Iri.compare seen.(x) seen.(y)) by_iri;
  let rank = Array.make m 0 in
  Array.iteri (fun r j -> rank.(j) <- r) by_iri;
  for r = 0 to n - 1 do
    let c = chunk_of a r and at = row_at a r in
    let later = ref false in
    for k = width - 1 downto 0 do
      let j = get c at k in
      if j >= 0 then begin
        set c at k (rank.(j) + 1);
        later := true
      end
      else set c at k (if !later then m + 1 else 0)
    done
  done;
  (* An LSD radix sort, least significant slots first: one stable
     counting pass per digit, a digit being as many adjacent slots as
     keep its range within [max n (m + 2)], so O(width * (n + m)). *)
  let base = m + 2 in
  let per = ref 1 and span = ref base in
  while !per < width && !span * base <= max n base do
    span := !span * base;
    incr per
  done;
  let order = ref (Array.init n Fun.id) and spare = ref (Array.make n 0) in
  let keys = Array.make n 0 in
  let hi = ref (width - 1) in
  while !hi >= 0 do
    let lo = max 0 (!hi - !per + 1) in
    for r = 0 to n - 1 do
      let c = chunk_of a r and at = row_at a r in
      let key = ref 0 in
      for k = lo to !hi do
        key := (!key * base) + get c at k
      done;
      keys.(r) <- !key
    done;
    Encoded.Encoded_graph.counting_pass ~range:!span keys ~stride:1 ~at:0
      !order !spare;
    let sorted = !spare in
    spare := !order;
    order := sorted;
    hi := lo - 1
  done;
  let order = !order in
  (* drop adjacent duplicates in place *)
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let r = order.(i) in
    if !kept = 0 || not (same_row a order.(!kept - 1) r) then begin
      order.(!kept) <- r;
      incr kept
    end
  done;
  { vars; iris = Array.map (fun j -> seen.(j)) by_iri; arena = a; order; n = !kept }

let of_rows vars iri rows = of_iter vars iri (fun sink -> List.iter sink rows)
let cardinal t = t.n
let variables t = t.vars
let iris t = t.iris

let binding t i k =
  let r = t.order.(i) in
  let key = get (chunk_of t.arena r) (row_at t.arena r) k - 1 in
  if key >= 0 && key < Array.length t.iris then key else -1

(* [Format]'s default margin. *)
let margin = 78

let chunk = 65536

(* The bytes being written: [bytes.(0 .. pos - 1)] not yet handed on. *)
type out = {
  mutable bytes : Bytes.t;
  mutable pos : int;
  heads : string array;
  printed : string array;
  row_bytes : int;  (* at least the bytes of any row *)
}

let reserve o n =
  if o.pos + n > Bytes.length o.bytes then begin
    let bigger = Bytes.create (max (2 * Bytes.length o.bytes) (o.pos + n)) in
    Bytes.blit o.bytes 0 bigger 0 o.pos;
    o.bytes <- bigger
  end

(* [s] copied into [b] at [pos], returning the position after it. *)
let put b pos s =
  let n = String.length s in
  Bytes.blit_string s 0 b pos n;
  pos + n

(* [Mapping.pp] prints "{b1, b2, …}" with a break hint after each comma
   and no box, and [@.] flushes. [Format] takes a hint when the space
   and the next "binding," would reach the margin; the hint before the
   last binding is still pending at the flush, which sizes it as
   infinite, so that one is always taken. Columns count bytes, as
   [Format] does. *)
let write_row o t i =
  let a = t.arena and m = Array.length t.iris in
  let width = a.width in
  let c = chunk_of a t.order.(i) and at = row_at a t.order.(i) in
  (* the last bound slot: its key is a rank, and every later key is 0 *)
  let last = ref (width - 1) in
  while !last >= 0 && get c at !last = 0 do
    decr last
  done;
  let last = !last in
  reserve o o.row_bytes;
  let b = o.bytes in
  Bytes.set b o.pos '{';
  let pos = ref (o.pos + 1) and col = ref 1 and first = ref true in
  for k = 0 to width - 1 do
    let r = get c at k - 1 in
    if r >= 0 && r < m then begin
      let head = o.heads.(k) and iri = o.printed.(r) in
      let len = String.length head + String.length iri in
      if not !first then begin
        if k = last || !col + len + 2 >= margin then begin
          Bytes.set b !pos '\n';
          col := 0
        end
        else begin
          Bytes.set b !pos ' ';
          incr col
        end;
        incr pos
      end;
      first := false;
      pos := put b (put b !pos head) iri;
      col := !col + len;
      if k <> last then begin
        Bytes.set b !pos ',';
        incr pos;
        incr col
      end
    end
  done;
  Bytes.set b !pos '}';
  Bytes.set b (!pos + 1) '\n';
  o.pos <- !pos + 2

(* Write every row, handing the bytes to [flush] whenever they fill a
   chunk. *)
let write_rows flush t =
  let heads = Array.map (Fmt.str "%a ↦ " Variable.pp) t.vars in
  let printed = Array.map (Fmt.str "%a" Iri.pp) t.iris in
  let longest = Array.fold_left (fun n p -> max n (String.length p)) 0 printed in
  let o =
    {
      bytes = Bytes.create (chunk + 4096);
      pos = 0;
      heads;
      printed;
      row_bytes =
        Array.fold_left (fun n h -> n + String.length h + 2 + longest) 3 heads;
    }
  in
  for i = 0 to t.n - 1 do
    write_row o t i;
    if o.pos >= chunk then begin
      flush o.bytes o.pos;
      o.pos <- 0
    end
  done;
  if o.pos > 0 then flush o.bytes o.pos

let write buf t = write_rows (fun b n -> Buffer.add_subbytes buf b 0 n) t
let output oc t = write_rows (fun b n -> output oc b 0 n) t
