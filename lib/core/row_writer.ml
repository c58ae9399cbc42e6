open Rdf

type t = {
  heads : string array;  (* per slot: "?v ↦ " *)
  iris : string array;  (* per rank: the printed IRI *)
  rows : int array array;  (* ranks, sorted and distinct; -1 unbound *)
}

(* {!Sparql.Mapping.compare} on rows of ranks: the maps' bindings are
   compared in variable order, which is slot order, and a map that runs
   out of bindings first is the smaller. *)
let compare_rows a b =
  let n = Array.length a in
  let rec next r i = if i < n && r.(i) < 0 then next r (i + 1) else i in
  let rec go i j =
    let i = next a i and j = next b j in
    if i = n then if j = n then 0 else -1
    else if j = n then 1
    else if i <> j then compare i j
    else
      let c = compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1) (j + 1)
  in
  go 0 0

let of_rows vars iri rows =
  (* rank every distinct id by its IRI's bytes, so rows sort on ints *)
  let ids = Hashtbl.create 256 in
  List.iter
    (Array.iter (fun id ->
         if id >= 0 && not (Hashtbl.mem ids id) then
           Hashtbl.add ids id (iri id)))
    rows;
  let by_iri = Array.of_seq (Hashtbl.to_seq ids) in
  Array.sort (fun (_, a) (_, b) -> Iri.compare a b) by_iri;
  let rank = Hashtbl.create (Array.length by_iri) in
  Array.iteri (fun r (id, _) -> Hashtbl.replace rank id r) by_iri;
  let ranked =
    Array.of_list
      (List.map
         (Array.map (fun id -> if id < 0 then -1 else Hashtbl.find rank id))
         rows)
  in
  Array.sort compare_rows ranked;
  let distinct =
    List.rev
      (Array.fold_left
         (fun acc r ->
           match acc with
           | prev :: _ when compare_rows prev r = 0 -> acc
           | _ -> r :: acc)
         [] ranked)
  in
  {
    heads = Array.map (Fmt.str "%a ↦ " Variable.pp) vars;
    iris = Array.map (fun (_, i) -> Fmt.str "%a" Iri.pp i) by_iri;
    rows = Array.of_list distinct;
  }

let cardinal t = Array.length t.rows

(* [Format]'s default margin. *)
let margin = 78

(* [Mapping.pp] prints "{b1, b2, …}" with a break hint after each comma
   and no box, and [@.] flushes. [Format] takes a hint when the space
   and the next "binding," would reach the margin; the hint before the
   last binding is still pending at the flush, which sizes it as
   infinite, so that one is always taken. Columns count bytes, as
   [Format] does. *)
let write_row buf t row =
  let last = ref (-1) in
  Array.iteri (fun i r -> if r >= 0 then last := i) row;
  Buffer.add_char buf '{';
  let col = ref 1 and first = ref true in
  Array.iteri
    (fun i r ->
      if r >= 0 then begin
        let head = t.heads.(i) and iri = t.iris.(r) in
        let len = String.length head + String.length iri in
        if not !first then
          if i = !last || !col + len + 2 >= margin then begin
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
        if i <> !last then begin
          Buffer.add_char buf ',';
          incr col
        end
      end)
    row;
  Buffer.add_string buf "}\n"

let write buf t = Array.iter (write_row buf t) t.rows

let chunk = 65536

let output oc t =
  let buf = Buffer.create chunk in
  Array.iter
    (fun row ->
      write_row buf t row;
      if Buffer.length buf >= chunk then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end)
    t.rows;
  Buffer.output_buffer oc buf
