open Rdf

(* Distinct ids of one result, ranked by their IRI. Ids are dense, so
   an id is its own hash. *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id land max_int
end)

type t = {
  vars : Variable.t array;
  iris : Iri.t array;  (* per rank, in [Iri.compare] order *)
  width : int;
  arena : int array;
      (* the rows as they came, [width] keys each: a rank, or for an
         unbound slot -1 when no later slot of its row is bound and
         [Array.length iris] when one is *)
  order : int array;
      (* [order.(i)], [i < n]: the arena row that is the i-th distinct
         row in sorted order *)
  n : int;
}

(* Arena rows [i] and [j], slot by slot. With the keys above, plain
   lexicographic int order is {!Sparql.Mapping.compare} order: the
   maps' bindings are compared in variable order, which is slot order,
   a binding beats no binding when a later slot is bound (its variable
   comes first), and a map that runs out of bindings first is the
   smaller. *)
let compare_rows width (arena : int array) i j =
  let rec go k =
    if k = width then 0
    else
      let x = arena.((i * width) + k) and y = arena.((j * width) + k) in
      if x <> y then if x < y then -1 else 1 else go (k + 1)
  in
  go 0

let of_iter vars iri walk =
  let width = Array.length vars in
  (* the rows as they come, in one growing arena *)
  let arena = ref (Array.make (max 1 (64 * width)) 0) and n = ref 0 in
  walk (fun row ->
      let at = !n * width in
      if at + width > Array.length !arena then begin
        let bigger = Array.make (2 * Array.length !arena) 0 in
        Array.blit !arena 0 bigger 0 at;
        arena := bigger
      end;
      Array.blit row 0 !arena at width;
      incr n);
  let arena = !arena and n = !n in
  (* rank every distinct id by its IRI, so rows sort on ints *)
  let rank = Ids.create 256 and distinct = ref [] in
  for k = 0 to (n * width) - 1 do
    let id = arena.(k) in
    if id >= 0 && not (Ids.mem rank id) then begin
      Ids.add rank id 0;
      distinct := (id, iri id) :: !distinct
    end
  done;
  let by_iri = Array.of_list !distinct in
  Array.sort (fun (_, a) (_, b) -> Iri.compare a b) by_iri;
  Array.iteri (fun r (id, _) -> Ids.replace rank id r) by_iri;
  let n_ranks = Array.length by_iri in
  for i = 0 to n - 1 do
    let later = ref false in
    for k = ((i + 1) * width) - 1 downto i * width do
      let id = arena.(k) in
      if id >= 0 then begin
        arena.(k) <- Ids.find rank id;
        later := true
      end
      else arena.(k) <- (if !later then n_ranks else -1)
    done
  done;
  let order = Array.init n Fun.id in
  Array.stable_sort (compare_rows width arena) order;
  (* drop adjacent duplicates in place *)
  let kept = ref 0 in
  Array.iter
    (fun i ->
      if !kept = 0 || compare_rows width arena order.(!kept - 1) i <> 0
      then begin
        order.(!kept) <- i;
        incr kept
      end)
    order;
  { vars; iris = Array.map snd by_iri; width; arena; order; n = !kept }

let of_rows vars iri rows = of_iter vars iri (fun sink -> List.iter sink rows)
let cardinal t = t.n
let variables t = t.vars
let iris t = t.iris

let binding t i k =
  let r = t.arena.((t.order.(i) * t.width) + k) in
  if r >= 0 && r < Array.length t.iris then r else -1

(* [Format]'s default margin. *)
let margin = 78

(* [Mapping.pp] prints "{b1, b2, …}" with a break hint after each comma
   and no box, and [@.] flushes. [Format] takes a hint when the space
   and the next "binding," would reach the margin; the hint before the
   last binding is still pending at the flush, which sizes it as
   infinite, so that one is always taken. Columns count bytes, as
   [Format] does. *)
let write_row buf ~heads ~printed t i =
  let last = ref (-1) in
  for k = 0 to t.width - 1 do
    if binding t i k >= 0 then last := k
  done;
  Buffer.add_char buf '{';
  let col = ref 1 and first = ref true in
  for k = 0 to t.width - 1 do
    let r = binding t i k in
    if r >= 0 then begin
      let head = heads.(k) and iri = printed.(r) in
      let len = String.length head + String.length iri in
      if not !first then
        if k = !last || !col + len + 2 >= margin then begin
          Buffer.add_char buf '\n';
          col := 0
        end
        else begin
          Buffer.add_char buf ' ';
          incr col
        end;
      first := false;
      Buffer.add_string buf head;
      Buffer.add_string buf iri;
      col := !col + len;
      if k <> !last then begin
        Buffer.add_char buf ',';
        incr col
      end
    end
  done;
  Buffer.add_string buf "}\n"

let chunk = 65536

(* Write every row into [buf], handing it to [flush] whenever it holds a
   chunk. *)
let write_rows buf flush t =
  let heads = Array.map (Fmt.str "%a ↦ " Variable.pp) t.vars in
  let printed = Array.map (Fmt.str "%a" Iri.pp) t.iris in
  for i = 0 to t.n - 1 do
    write_row buf ~heads ~printed t i;
    if Buffer.length buf >= chunk then flush buf
  done

let write buf t = write_rows buf ignore t

let output oc t =
  let buf = Buffer.create chunk in
  write_rows buf
    (fun buf ->
      Buffer.output_buffer oc buf;
      Buffer.clear buf)
    t;
  Buffer.output_buffer oc buf
