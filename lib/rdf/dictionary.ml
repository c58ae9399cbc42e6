(* Two backends share one interning façade:

   - a plain heap dictionary (hash table + growable term array), built by
     walking a graph — the historical representation;
   - a read-only [view] (closure-provided decode/lookup, e.g. over an
     mmap'd dictionary blob) plus a heap overflow region for terms
     interned after the fact (query constants absent from the store).

   View ids occupy [0 .. view_size); overflow ids continue from there, so
   every id stays dense and array-indexable. Decoded view terms and
   successful view lookups are memoized on the heap side — the decode
   cost of a term is paid at most once per process, and a store that is
   never decoded never materialises a single term.

   Thread safety: heap dictionaries are built single-threaded and are
   read-only afterwards, so their lookup/decode paths stay lock-free.
   View-backed dictionaries mutate their memo tables on the read path
   (and the server's threads decode concurrently), so every path
   that touches a view dictionary's mutable state runs under [lock]. *)

type view = {
  view_size : int;
  view_term : int -> Term.t;  (** decode, called with ids in [0, view_size) *)
  view_find : Term.t -> int option;
}

type t = {
  ids : (Term.t, int) Hashtbl.t;
      (* overflow terms, plus memoized successful view lookups *)
  mutable terms : Term.t array;  (* overflow region, index id - base *)
  mutable size : int;  (* total: base + overflow *)
  base : view option;
  decoded : (int, Term.t) Hashtbl.t;  (* view decode memo *)
  lock : Mutex.t;
      (* guards [ids]/[decoded]/[terms]/[size] when [base] is [Some _] *)
}

let base_size t = match t.base with None -> 0 | Some v -> v.view_size

let create () =
  {
    ids = Hashtbl.create 64;
    terms = Array.make 64 (Term.iri "x:x");
    size = 0;
    base = None;
    decoded = Hashtbl.create 0;
    lock = Mutex.create ();
  }

let of_view view =
  if view.view_size < 0 then invalid_arg "Dictionary.of_view: negative size";
  {
    ids = Hashtbl.create 64;
    terms = Array.make 16 (Term.iri "x:x");
    size = view.view_size;
    base = Some view;
    decoded = Hashtbl.create 256;
    lock = Mutex.create ();
  }

(* Requires [t.lock] held when [t.base] is [Some _]. *)
let find_unlocked t term =
  match Hashtbl.find_opt t.ids term with
  | Some id -> Some id
  | None -> (
      match t.base with
      | None -> None
      | Some v -> (
          match v.view_find term with
          | Some id ->
              Hashtbl.replace t.ids term id;
              Some id
          | None -> None))

let find t term =
  match t.base with
  | None -> find_unlocked t term
  | Some _ -> Mutex.protect t.lock (fun () -> find_unlocked t term)

(* Requires [t.lock] held when [t.base] is [Some _]. *)
let intern_unlocked t term =
  match find_unlocked t term with
  | Some id -> id
  | None ->
      let id = t.size in
      let slot = id - base_size t in
      if slot = Array.length t.terms then begin
        let bigger = Array.make (2 * max 1 slot) term in
        Array.blit t.terms 0 bigger 0 slot;
        t.terms <- bigger
      end;
      t.terms.(slot) <- term;
      Hashtbl.replace t.ids term id;
      t.size <- id + 1;
      id

let intern t term =
  match t.base with
  | None -> intern_unlocked t term
  | Some _ -> Mutex.protect t.lock (fun () -> intern_unlocked t term)

let of_terms terms =
  let t = create () in
  List.iter (fun term -> ignore (intern t term)) terms;
  t

let of_graph graph =
  let t = create () in
  List.iter
    (fun triple -> List.iter (fun term -> ignore (intern t term)) (Triple.terms triple))
    (Graph.triples graph);
  t

let term_of t id =
  match t.base with
  | None ->
      if id < 0 || id >= t.size then invalid_arg "Dictionary.term_of: unknown id"
      else t.terms.(id)
  | Some v ->
      Mutex.protect t.lock (fun () ->
          if id < 0 || id >= t.size then
            invalid_arg "Dictionary.term_of: unknown id"
          else if id >= v.view_size then t.terms.(id - v.view_size)
          else
            match Hashtbl.find_opt t.decoded id with
            | Some term -> term
            | None ->
                let term = v.view_term id in
                Hashtbl.replace t.decoded id term;
                term)

let size t = t.size

let encode_triple t triple =
  (intern t triple.Triple.s, intern t triple.Triple.p, intern t triple.Triple.o)

let decode_triple t (s, p, o) =
  Triple.make (term_of t s) (term_of t p) (term_of t o)
