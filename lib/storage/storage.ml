(* The compiled store: writer (plain buffered output, atomic rename) and
   mmap reader. This module owns every byte-layout and mapping concern;
   the rest of the codebase sees the result only through the closure
   views of [Rdf.Dictionary.of_view] and [Encoded.Encoded_graph.of_views]
   — a lint rule (tools/lint) keeps [Unix.map_file]/[Bigarray] confined
   here.

   Two file kinds share one container (see [kind] below):
   - base stores, the v1 layout (unchanged byte for byte in v2);
   - delta segments [<base>.d1, .d2, ...]: append-only add/delete logs
     with their own dictionary-growth block, chained by parent stamp
     and merged at load through [Overlay] into the same flat views. *)

module E = Encoded.Encoded_graph
module Err = Wdsparql_error
module A1 = Bigarray.Array1

let format_version = 2
let header_size = 256

(* Detects reading a store on a machine of the other endianness (the
   words would come back byte-swapped). Fits in 57 bits, so it is a
   valid OCaml int everywhere we run. *)
let byte_order_mark = 0x0123456789ABCDEF

let fail path fault msg = Err.fail (Err.Store_error { path; fault; msg })

(* ------------------------------------------------------------------ *)
(* The container                                                       *)
(* ------------------------------------------------------------------ *)

(* Every file is an 8-byte magic, the format version, the byte-order
   mark, then the kind's count words from byte 24, then its section
   table of (offset, length) word pairs, zero padding to [header_size],
   and the sections, each 16-byte aligned. A kind describes its words
   and the length each section must have: [Sized (w, width, extra)] is
   [width * (word w + extra)] bytes, [Free] any length. *)
type extent = Free | Sized of int * int * int

type file = {
  f_path : string;
  f_words : int array;  (* the kind's count words *)
  f_table : (int * int) array;  (* (offset, length) per section *)
  f_bytes : int;  (* the whole file *)
}

type kind = {
  k_magic : string;
  k_words : int;
  k_stamp : int;  (* the word holding the payload stamp *)
  k_sections : (string * extent) array;
  k_check : file -> unit;
      (* the kind's header semantics, run before the table is trusted *)
}

(* Base-store words. *)
let b_triples = 0
let b_terms = 1
let b_stamp = 2
let b_preds = 3
let b_distinct = 4 (* distinct subjects, objects, predicates: 4, 5, 6 *)

(* Segment words. *)
let s_parent = 0
let s_stamp = 1
let s_adds = 2
let s_dels = 3
let s_new_terms = 4
let s_parent_terms = 5

let base_kind =
  {
    k_magic = "WDSTORE1";
    k_words = 7;
    k_stamp = b_stamp;
    k_sections =
      [|
        ("dict-offsets", Sized (b_terms, 8, 1));
        ("term-sort", Sized (b_terms, 8, 0));
        ("dict-blob", Free);
        ("spo-index", Sized (b_triples, 24, 0));
        ("pos-index", Sized (b_triples, 24, 0));
        ("osp-index", Sized (b_triples, 24, 0));
        ("pred-stats", Sized (b_preds, 32, 0));
      |];
    k_check =
      (fun h ->
        for i = b_distinct to b_distinct + 2 do
          if h.f_words.(i) > h.f_words.(b_terms) then
            fail h.f_path Err.Corrupt "distinct-count statistics out of range"
        done);
  }

let segment_kind =
  {
    k_magic = "WDSDELT1";
    k_words = 6;
    k_stamp = s_stamp;
    k_sections =
      [|
        ("new-dict-offsets", Sized (s_new_terms, 8, 1));
        ("new-dict-blob", Free);
        ("adds", Sized (s_adds, 24, 0));
        ("dels", Sized (s_dels, 24, 0));
      |];
    k_check = ignore;
  }

(* The magic of the shard manifests earlier versions wrote. No reader
   takes one any more, but it is still recognised, so that such a file
   fails as a store (naming what to do) and never reaches the Turtle
   parser. *)
let retired_magic = "WDSMANI1"

(* What a file's leading bytes make it: a kind, by its magic; [`Retired],
   an old shard manifest; [`Short], a proper prefix of a magic (a store
   cut off mid-write, or empty); or foreign. *)
let classify head =
  let kinds = [ base_kind; segment_kind ] in
  let magics = retired_magic :: List.map (fun k -> k.k_magic) kinds in
  let is_prefix a b = String.starts_with ~prefix:a b in
  match List.find_opt (fun k -> is_prefix k.k_magic head) kinds with
  | Some k -> `Kind k
  | None when is_prefix retired_magic head -> `Retired
  | None when List.exists (is_prefix head) magics -> `Short
  | None -> `Foreign

(* ------------------------------------------------------------------ *)
(* Content stamp: FNV-1a folded into 62 bits so the stamp is a
   non-negative OCaml int on every 64-bit platform (and so [-1 - stamp]
   is always a valid negative identity).                               *)
(* ------------------------------------------------------------------ *)

let fnv_basis = 0x3bf29ce484222325
let fnv_prime = 0x100000001b3
let fnv_byte h b = ((h lxor b) * fnv_prime) land max_int

let fnv_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fnv_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let identity_of_stamp stamp = -1 - stamp

(* The chain stamp after applying one segment: fold the parent chain
   stamp and the segment's payload stamp. Associating left over the
   chain gives every (base, segment list) prefix a distinct identity. *)
let fold_stamp chain seg =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int chain);
  Bytes.set_int64_le b 8 (Int64.of_int seg);
  fnv_string fnv_basis (Bytes.to_string b)

(* ------------------------------------------------------------------ *)
(* Term serialization: a one-byte tag and the term's text. Both term
   constructors reject the empty string, so entries are >= 2 bytes and
   the byte comparison used by [term-sort] is total and unambiguous
   (tags differ before texts are compared).                            *)
(* ------------------------------------------------------------------ *)

let serialize_term = function
  | Rdf.Term.Iri i -> "I" ^ Rdf.Iri.to_string i
  | Rdf.Term.Var v -> "V" ^ Rdf.Variable.to_string v

let deserialize_term path s =
  let corrupt msg = fail path Err.Corrupt msg in
  if String.length s < 2 then corrupt "dictionary entry shorter than tag + text"
  else
    let text = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'I' -> (
        try Rdf.Term.iri text
        with Invalid_argument _ -> corrupt "invalid IRI in dictionary blob")
    | 'V' -> (
        try Rdf.Term.var text
        with Invalid_argument _ ->
          corrupt "invalid variable name in dictionary blob")
    | _ -> corrupt "unknown term tag in dictionary blob"

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let add_word buf v = Buffer.add_int64_le buf (Int64.of_int v)

(* A section of [n] words, the i-th being [word i]: filled in place,
   with no buffer growth or copy. *)
let words_section n word =
  let b = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.of_int (word i))
  done;
  Bytes.unsafe_to_string b

(* Dictionary sections of serialized terms: [n + 1] offsets delimiting
   each term's bytes, and the blob. *)
let dict_sections ser =
  let starts = Array.make (Array.length ser + 1) 0 in
  Array.iteri (fun i s -> starts.(i + 1) <- starts.(i) + String.length s) ser;
  ( words_section (Array.length starts) (Array.get starts),
    String.concat "" (Array.to_list ser) )

(* [n] raw triples, as [iter] calls its argument on them. *)
let triples_section n iter =
  let b = Bytes.create (24 * n) and i = ref 0 in
  iter (fun s p o ->
      let at = 24 * !i in
      Bytes.set_int64_le b at (Int64.of_int s);
      Bytes.set_int64_le b (at + 8) (Int64.of_int p);
      Bytes.set_int64_le b (at + 16) (Int64.of_int o);
      incr i);
  Bytes.unsafe_to_string b

(* Persist the enclosing directory entry (after a rename). Best-effort:
   some filesystems refuse directory opens or fsync, and the file is
   already fully written. *)
let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dir ->
      (try Unix.fsync dir with Unix.Unix_error _ -> ());
      Unix.close dir

let atomic_write path output =
  let io_fail msg = Err.fail (Err.Io_error { path; msg }) in
  let tmp = path ^ ".tmp" in
  let oc = try open_out_bin tmp with Sys_error msg -> io_fail msg in
  (try
     output oc;
     flush oc;
     (* The temp file's bytes must reach the disk before the rename
        publishes it, or a crash right after could leave a truncated
        store at the final path — the rename is atomic against readers
        only; durability needs the fsync. *)
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     (match e with
     | Sys_error msg -> io_fail msg
     | Unix.Unix_error (err, _, _) -> io_fail (Unix.error_message err)
     | e -> raise e));
  (try Sys.rename tmp path with Sys_error msg -> io_fail msg);
  fsync_dir path

(* Write one file of [kind] atomically: the header with [words] (the
   payload stamp replaces the kind's stamp slot), the section table, and
   [sections] 16-byte aligned after the header. The payload — padding
   and sections in file order — is hashed and written section by
   section, never joined into one string. Returns the stamp. *)
let write_file kind path ~words ~sections =
  assert (Array.length words = kind.k_words);
  let stamp = ref fnv_basis and pos = ref header_size in
  let table =
    Array.map
      (fun sec ->
        let pad = (16 - (!pos mod 16)) mod 16 in
        for _ = 1 to pad do
          stamp := fnv_byte !stamp 0
        done;
        stamp := fnv_string !stamp sec;
        let off = !pos + pad in
        pos := off + String.length sec;
        (off, String.length sec))
      sections
  in
  let stamp = !stamp in
  let header = Buffer.create header_size in
  Buffer.add_string header kind.k_magic;
  add_word header format_version;
  add_word header byte_order_mark;
  Array.iteri
    (fun i w -> add_word header (if i = kind.k_stamp then stamp else w))
    words;
  Array.iter
    (fun (off, len) ->
      add_word header off;
      add_word header len)
    table;
  Buffer.add_string header
    (String.make (header_size - Buffer.length header) '\000');
  atomic_write path (fun oc ->
      Buffer.output_buffer oc header;
      let at = ref header_size in
      Array.iteri
        (fun i sec ->
          let off, len = table.(i) in
          output_string oc (String.make (off - !at) '\000');
          output_string oc sec;
          at := off + len)
        sections);
  stamp

let write_store enc path =
  let n = E.cardinal enc in
  let dict = E.dictionary enc in
  let n_terms = Rdf.Dictionary.size dict in
  (* Dictionary sections: blob + offsets in id order, and the ids sorted
     by serialized bytes for the reader's reverse lookup. *)
  let ser =
    Array.init n_terms (fun id -> serialize_term (Rdf.Dictionary.term_of dict id))
  in
  let order = Array.init n_terms Fun.id in
  Array.sort (fun a b -> String.compare ser.(a) ser.(b)) order;
  let offsets, blob = dict_sections ser in
  (* Statistics rows (predicate, triples, distinct subjects, distinct
     objects): one per distinct predicate, ascending pid, from one pass
     over POS. A predicate's triples are one block sorted by (o, s), so
     its objects are runs; a subject is new to the block unless the
     block's predicate is the last one it was seen with. Computed now —
     loads answer the planner from these without scanning the mapping. *)
  let pstats = Buffer.create 64 and rows = ref 0 in
  let last_pred = Array.make n_terms (-1) in
  let pred = ref (-1) and triples = ref 0 and subjects = ref 0 in
  let objects = ref 0 and last_obj = ref (-1) in
  let close_row () =
    if !triples > 0 then begin
      incr rows;
      List.iter (add_word pstats) [ !pred; !triples; !subjects; !objects ]
    end
  in
  E.iter_index enc E.Pos (fun s p o ->
      if p <> !pred then begin
        close_row ();
        pred := p;
        triples := 0;
        subjects := 0;
        objects := 0;
        last_obj := -1
      end;
      incr triples;
      if o <> !last_obj then begin
        incr objects;
        last_obj := o
      end;
      if last_pred.(s) <> p then begin
        incr subjects;
        last_pred.(s) <- p
      end);
  close_row ();
  (* Index sections: the raw tuples of each permutation, in its order. *)
  let index perm = triples_section n (E.iter_index enc perm) in
  write_file base_kind path
    ~words:
      [|
        n;
        n_terms;
        0 (* stamp *);
        !rows;
        E.distinct_subjects enc;
        E.distinct_objects enc;
        E.distinct_predicates enc;
      |]
    ~sections:
      [|
        offsets;
        words_section n_terms (Array.get order);
        blob;
        index E.Spo;
        index E.Pos;
        index E.Osp;
        Buffer.contents pstats;
      |]

let save enc path = ignore (write_store enc path)

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

let get_word s i = Int64.to_int (String.get_int64_le s (8 * i))

let with_channel path f =
  let ic =
    try open_in_bin path
    with Sys_error msg -> Err.fail (Err.Io_error { path; msg })
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let sniff path =
  with_channel path (fun ic ->
      classify (really_input_string ic (min (in_channel_length ic) 8)))

(* Bounds, expected lengths (a negative expectation means free-form) and
   pairwise disjointness of a section table: in-bounds but overlapping
   offsets would alias dictionary/index bytes and yield wrong answers
   without any out-of-bounds access to catch it. Only an extent past
   end-of-file is a truncation; anything else is corruption. *)
let validate_sections path ~size ~table ~expected =
  Array.iteri
    (fun k (off, len) ->
      let bad fault what =
        fail path fault (Printf.sprintf "section %d %s" k what)
      in
      if off < header_size then bad Err.Corrupt "starts inside the header";
      if len < 0 then bad Err.Corrupt "has a negative length";
      if len > size || off > size - len then
        bad Err.Truncated "extends past end-of-file";
      if expected.(k) >= 0 && len <> expected.(k) then
        bad Err.Corrupt "length disagrees with header counts")
    table;
  let order = Array.init (Array.length table) Fun.id in
  Array.sort (fun a b -> compare (fst table.(a)) (fst table.(b))) order;
  let last_end = ref header_size in
  Array.iter
    (fun k ->
      let off, len = table.(k) in
      if len > 0 then begin
        if off < !last_end then
          fail path Err.Corrupt
            (Printf.sprintf "section %d overlaps another section" k);
        last_end := off + len
      end)
    order

(* The mapped sections, at their concrete kind and layout. A section
   typed only as [(_, _, _) A1.t] compiles every [A1.get] into a generic
   C call that dispatches on the kind at run time; at a known kind the
   read is an inline load, still bounds-checked. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t
type chars = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t

let map_section path fd kind ~pos ~bytes ~elt_bytes =
  if bytes = 0 then None
  else
    try
      let g =
        Unix.map_file fd ~pos:(Int64.of_int pos) kind Bigarray.c_layout false
          [| bytes / elt_bytes |]
      in
      Some (Bigarray.array1_of_genarray g)
    with Unix.Unix_error (e, _, _) ->
      Err.fail
        (Err.Io_error
           { path; msg = "mmap failed: " ^ Unix.error_message e })

let verify_payload h fd ~expect =
  let payload_bytes = h.f_bytes - header_size in
  let stamp =
    match
      map_section h.f_path fd Bigarray.char ~pos:header_size
        ~bytes:payload_bytes ~elt_bytes:1
    with
    | None -> fnv_basis
    | Some (bytes : chars) ->
        let hash = ref fnv_basis in
        for i = 0 to payload_bytes - 1 do
          hash := fnv_byte !hash (Char.code (A1.get bytes i))
        done;
        !hash
  in
  if stamp <> expect then
    fail h.f_path Err.Checksum_mismatch
      (Printf.sprintf "payload hashes to %#x, header says %#x" stamp expect)

(* Open a file of [kind] and validate its header through ordinary channel
   I/O — magic, version, byte-order mark, counts, the kind's semantics,
   the section table — and under [~verify] its payload hash, then run
   [f] on the header and the open channel. Mappings made from the
   channel's descriptor outlive it. *)
let with_file ?(verify = false) kind path f =
  with_channel path (fun ic ->
      let size = in_channel_length ic in
      let head = really_input_string ic (min size header_size) in
      (match classify head with
      | `Kind k when k == kind -> ()
      | `Retired ->
          fail path Err.Bad_magic
            "shard manifests were removed; load or compile the source store \
             instead"
      | `Short -> fail path Err.Truncated "file shorter than the store magic"
      | _ -> fail path Err.Bad_magic "not a compiled store");
      if size < header_size then fail path Err.Truncated "incomplete header";
      let word = get_word head in
      if word 1 <> format_version then
        fail path
          (Err.Version_mismatch { found = word 1; expected = format_version })
          "";
      if word 2 <> byte_order_mark then
        fail path Err.Corrupt
          "byte-order mark mismatch (endianness or corruption)";
      let words = Array.init kind.k_words (fun i -> word (3 + i)) in
      if Array.exists (fun w -> w < 0) words then
        fail path Err.Corrupt "negative count in header";
      (* each count must physically fit in the file BEFORE its length
         multiplication — a flipped high bit would wrap the product mod
         the int range and alias a valid length *)
      let expected =
        Array.map
          (function
            | _, Free -> -1
            | _, Sized (w, width, extra) ->
                if words.(w) > size / width then
                  fail path Err.Truncated
                    "file too short for the header counts";
                width * (words.(w) + extra))
          kind.k_sections
      in
      let table =
        Array.init (Array.length kind.k_sections) (fun k ->
            let i = 3 + kind.k_words + (2 * k) in
            (word i, word (i + 1)))
      in
      let h =
        { f_path = path; f_words = words; f_table = table; f_bytes = size }
      in
      kind.k_check h;
      validate_sections path ~size ~table ~expected;
      if verify then
        verify_payload h (Unix.descr_of_in_channel ic)
          ~expect:words.(kind.k_stamp);
      f h ic)

(* The small sections of segments are read eagerly through the channel,
   no mapping needed. *)
let read_section ic h k =
  let off, len = h.f_table.(k) in
  seek_in ic off;
  really_input_string ic len

(* The dictionary view over the mapped offsets / sort / blob sections.
   Offsets are validated at each decode (not eagerly: an O(n_terms)
   scan would defeat the O(pages touched) load), so a corrupt blob
   surfaces as [Store_error Corrupt] at first touch, never a crash —
   every mapping access below is bounds-checked by Bigarray. *)
let dict_view path ~(offsets : ints) ~(term_sort : ints option)
    ~(blob : chars option) ~blob_len ~n_terms =
  let entry id =
    let lo = A1.get offsets id and hi = A1.get offsets (id + 1) in
    if lo < 0 || hi < lo || hi > blob_len then
      fail path Err.Corrupt
        (Printf.sprintf "dictionary offsets for id %d out of range" id);
    (lo, hi - lo)
  in
  let blob_get =
    match blob with
    | Some b -> fun i -> A1.get b i
    | None ->
        fun _ -> fail path Err.Corrupt "term refers into an empty blob"
  in
  let view_term id =
    let lo, len = entry id in
    deserialize_term path (String.init len (fun i -> blob_get (lo + i)))
  in
  (* Compare term [id]'s bytes against [probe] without materialising the
     entry. *)
  let compare_entry id probe =
    let lo, len = entry id in
    let plen = String.length probe in
    let rec go i =
      if i = len || i = plen then compare len plen
      else
        let c = Char.compare (blob_get (lo + i)) probe.[i] in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let sorted_id rank =
    match term_sort with
    | None -> fail path Err.Corrupt "term-sort section missing"
    | Some ts ->
        let id = A1.get ts rank in
        if id < 0 || id >= n_terms then
          fail path Err.Corrupt "term-sort id out of range"
        else id
  in
  let view_find term =
    let probe = serialize_term term in
    let lo = ref 0 and hi = ref n_terms in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if compare_entry (sorted_id mid) probe < 0 then lo := mid + 1
      else hi := mid
    done;
    if !lo >= n_terms then None
    else
      let id = sorted_id !lo in
      if compare_entry id probe = 0 then Some id else None
  in
  { Rdf.Dictionary.view_size = n_terms; view_term; view_find }

(* Ids leave the store here, so each is range-checked against the
   dictionary: a corrupt one would otherwise surface far away, as a raw
   [Invalid_argument] from the dictionary at decode. *)
let triple_view path ~n_terms ~perm (section : ints option) n =
  match section with
  | None ->
      let empty _ = fail path Err.Corrupt "probe into an empty index" in
      {
        E.fn = 0;
        fload = (fun i _ -> empty i);
        fcompare = (fun i _ _ _ -> empty i);
      }
  | Some a ->
      let check id =
        if id < 0 || id >= n_terms then
          fail path Err.Corrupt "index id out of range"
      in
      (* where the permutation's first, second and third key sit *)
      let j1, j2, j3 = E.key perm (0, 1, 2) in
      {
        E.fn = n;
        fload =
          (fun i (b : int array) ->
            let at = 3 * i in
            let s = A1.get a at and p = A1.get a (at + 1)
            and o = A1.get a (at + 2) in
            check s;
            check p;
            check o;
            b.(0) <- s;
            b.(1) <- p;
            b.(2) <- o);
        fcompare =
          (fun i k1 k2 k3 ->
            let at = 3 * i in
            let x = A1.get a (at + j1) in
            check x;
            if x <> k1 then if x < k1 then -1 else 1
            else
              let x = A1.get a (at + j2) in
              check x;
              if x <> k2 then if x < k2 then -1 else 1
              else
                let x = A1.get a (at + j3) in
                check x;
                if x <> k3 then if x < k3 then -1 else 1 else 0);
      }

(* Per-predicate rows, pid-ascending; checked eagerly (rows = distinct
   predicates, a tiny section) so binary search is sound. A predicate
   with no row genuinely has no triples: the writer emits a row for
   every distinct predicate. *)
let stats_seed ~(pstats : ints option) h =
  let path = h.f_path in
  let n_preds = h.f_words.(b_preds) in
  let zero = { E.triples = 0; distinct_subjects = 0; distinct_objects = 0 } in
  let row rank =
    match pstats with
    | None -> fail path Err.Corrupt "statistics row missing"
    | Some a ->
        ( A1.get a (4 * rank),
          {
            E.triples = A1.get a ((4 * rank) + 1);
            distinct_subjects = A1.get a ((4 * rank) + 2);
            distinct_objects = A1.get a ((4 * rank) + 3);
          } )
  in
  for rank = 0 to n_preds - 1 do
    let pid, s = row rank in
    if
      pid < 0
      || s.E.triples < 0
      || s.E.distinct_subjects < 0
      || s.E.distinct_objects < 0
      || (rank > 0 && pid <= fst (row (rank - 1)))
    then fail path Err.Corrupt "statistics rows unsorted or out of range"
  done;
  let seed_predicate p =
    let lo = ref 0 and hi = ref n_preds in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst (row mid) < p then lo := mid + 1 else hi := mid
    done;
    if !lo < n_preds then
      let pid, s = row !lo in
      Some (if pid = p then s else zero)
    else Some zero
  in
  {
    E.seed_subjects = Some h.f_words.(b_distinct);
    seed_objects = Some h.f_words.(b_distinct + 1);
    seed_predicates = Some h.f_words.(b_distinct + 2);
    seed_predicate;
  }

type base = {
  b_dict : Rdf.Dictionary.view;
  b_spo : E.flat_view;
  b_pos : E.flat_view;
  b_osp : E.flat_view;
  b_seed : E.stats_seed;
}

(* Map the sections of an open base store. *)
let map_base h ic =
  let path = h.f_path and fd = Unix.descr_of_in_channel ic in
  let map kind elt_bytes k =
    let pos, bytes = h.f_table.(k) in
    map_section path fd kind ~pos ~bytes ~elt_bytes
  in
  let ints = map Bigarray.int 8 in
  let offsets =
    match ints 0 with
    | Some a -> a
    | None -> fail path Err.Corrupt "dictionary offsets section empty"
  in
  let n_terms = h.f_words.(b_terms) in
  let index perm k =
    triple_view path ~n_terms ~perm (ints k) h.f_words.(b_triples)
  in
  {
    b_dict =
      dict_view path ~offsets ~term_sort:(ints 1)
        ~blob:(map Bigarray.char 1 2) ~blob_len:(snd h.f_table.(2)) ~n_terms;
    b_spo = index E.Spo 3;
    b_pos = index E.Pos 4;
    b_osp = index E.Osp 5;
    b_seed = stats_seed ~pstats:(ints 6) h;
  }

(* ------------------------------------------------------------------ *)
(* Delta segments                                                      *)
(* ------------------------------------------------------------------ *)

let seg_path base k = Printf.sprintf "%s.d%d" base k

(* The segment chain of a base store: <base>.d1, .d2, ... up to the
   first missing index. A hole in the numbering would silently drop the
   chain's tail, so probe one past the first gap and fail loudly. *)
let discover_segments path =
  let rec go acc k =
    let p = seg_path path k in
    if Sys.file_exists p then go (p :: acc) (k + 1)
    else begin
      if Sys.file_exists (seg_path path (k + 1)) then
        fail
          (seg_path path (k + 1))
          Err.Corrupt
          (Printf.sprintf "segment chain has a gap: %s is missing"
             (Filename.basename (seg_path path k)));
      List.rev acc
    end
  in
  go [] 1

type segment = {
  sd : file;
  sd_new_terms : string array;  (* serialized, ids from the parent terms *)
  sd_adds : (int * int * int) array;  (* sorted by (s,p,o) *)
  sd_dels : (int * int * int) array;
}

(* Segments are O(delta): read them eagerly, ids range-checked against
   the dictionary they extend. *)
let read_segment ?verify path =
  with_file ?verify segment_kind path (fun h ic ->
      let w = h.f_words in
      let offsets = read_section ic h 0 and blob = read_section ic h 1 in
      let new_terms =
        Array.init w.(s_new_terms) (fun i ->
            let lo = get_word offsets i and hi = get_word offsets (i + 1) in
            if lo < 0 || hi < lo || hi > String.length blob then
              fail path Err.Corrupt "segment dictionary offsets out of range";
            String.sub blob lo (hi - lo))
      in
      let n_terms = w.(s_parent_terms) + w.(s_new_terms) in
      let triples k =
        let sec = read_section ic h k in
        Array.init (String.length sec / 24) (fun i ->
            let id j =
              let v = get_word sec ((3 * i) + j) in
              if v < 0 || v >= n_terms then
                fail path Err.Corrupt "segment triple id out of range";
              v
            in
            (id 0, id 1, id 2))
      in
      {
        sd = h;
        sd_new_terms = new_terms;
        sd_adds = triples 2;
        sd_dels = triples 3;
      })

(* Open the base store at [path] under its segment chain. Each segment
   must name the running chain stamp as its parent and agree on where
   the dictionary stood; [f] gets the base header and channel, the
   final chain stamp and term count, and each segment with the chain
   stamp after it. *)
let with_chain ?verify path f =
  let segs = List.map (read_segment ?verify) (discover_segments path) in
  with_file ?verify base_kind path (fun h ic ->
      let (chain_stamp, terms), steps =
        List.fold_left_map
          (fun (stamp, terms) sd ->
            let w = sd.sd.f_words in
            if w.(s_parent) <> stamp then
              fail sd.sd.f_path
                (Err.Delta_chain_broken
                   { expected_parent = stamp; found_parent = w.(s_parent) })
                "";
            if w.(s_parent_terms) <> terms then
              fail sd.sd.f_path Err.Corrupt
                "segment dictionary base disagrees with the chain";
            let stamp = fold_stamp stamp w.(s_stamp) in
            ((stamp, terms + w.(s_new_terms)), (sd, stamp)))
          (h.f_words.(b_stamp), h.f_words.(b_terms))
          segs
      in
      f h ic ~chain_stamp ~terms steps)

(* ------------------------------------------------------------------ *)
(* Loading: base store (possibly under a segment chain)                *)
(* ------------------------------------------------------------------ *)

let load ?verify path =
  with_chain ?verify path (fun h ic ~chain_stamp ~terms steps ->
      let b = map_base h ic in
      let identity = identity_of_stamp chain_stamp in
      match List.map fst steps with
      | [] ->
          E.of_views ~identity ~dict:(Rdf.Dictionary.of_view b.b_dict)
            ~spo:b.b_spo ~pos:b.b_pos ~osp:b.b_osp ~stats:b.b_seed ()
      | segs ->
          (* Composed dictionary: base ids unchanged, segment growth
             appended above them. A find that misses the base scans the
             segment entries linearly — O(delta), and memoized by the
             Dictionary wrapper. *)
          let base_terms = h.f_words.(b_terms) in
          let extra =
            Array.concat (List.map (fun sd -> sd.sd_new_terms) segs)
          in
          let view_term id =
            if id < base_terms then b.b_dict.Rdf.Dictionary.view_term id
            else if id - base_terms < Array.length extra then
              deserialize_term path extra.(id - base_terms)
            else fail path Err.Corrupt "term id beyond the segment dictionary"
          in
          let view_find term =
            match b.b_dict.Rdf.Dictionary.view_find term with
            | Some id -> Some id
            | None ->
                let probe = serialize_term term in
                let found = ref None in
                Array.iteri
                  (fun i s ->
                    if !found = None && String.equal s probe then
                      found := Some (base_terms + i))
                  extra;
                !found
          in
          let dict =
            Rdf.Dictionary.of_view
              { Rdf.Dictionary.view_size = terms; view_term; view_find }
          in
          let adds, dels =
            Overlay.compose
              ~base_mem:(fun t -> Overlay.view_mem b.b_spo E.Spo t)
              ~segments:(List.map (fun sd -> (sd.sd_adds, sd.sd_dels)) segs)
              ()
          in
          let spo = Overlay.merge ~base:b.b_spo ~perm:E.Spo ~adds ~dels ()
          and pos = Overlay.merge ~base:b.b_pos ~perm:E.Pos ~adds ~dels ()
          and osp = Overlay.merge ~base:b.b_osp ~perm:E.Osp ~adds ~dels () in
          (* Stats under the overlay: predicates the delta never touched
             keep their exact base rows; touched predicates (and the
             global distinct counts) fall back to the encoded layer's
             exact scans over the merged views, so the planner's figures
             match a monolithic recompile bit for bit. *)
          let stats =
            if Array.length adds = 0 && Array.length dels = 0 then b.b_seed
            else begin
              let touched = Hashtbl.create 16 in
              Array.iter (fun (_, p, _) -> Hashtbl.replace touched p ()) adds;
              Array.iter (fun (_, p, _) -> Hashtbl.replace touched p ()) dels;
              {
                E.seed_subjects = None;
                seed_objects = None;
                seed_predicates = None;
                seed_predicate =
                  (fun p ->
                    if Hashtbl.mem touched p then None
                    else b.b_seed.E.seed_predicate p);
              }
            end
          in
          E.of_views ~identity ~dict ~spo ~pos ~osp ~stats ())

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let load_graph ?verify path =
  let enc = load ?verify path in
  (* The deferred term-level decode: only forced by consumers outside
     the encoded path (naive evaluation, printing); runs on the same
     dictionary, so decoded terms are shared with the store's memo. *)
  let graph =
    Rdf.Graph.deferred ~epoch:(E.epoch enc) (fun () ->
        let dict = E.dictionary enc in
        let acc = ref [] in
        E.iter_index enc E.Spo (fun s p o ->
            acc := Rdf.Dictionary.decode_triple dict (s, p, o) :: !acc);
        Rdf.Index.of_triples (List.rev !acc))
  in
  E.register graph enc;
  graph

let looks_like_store path =
  match sniff path with
  | `Kind k -> k == base_kind
  | `Retired -> true
  | `Short | `Foreign -> false
  | exception (Err.Error _ | Sys_error _) -> false

(* ------------------------------------------------------------------ *)
(* Append / compact                                                    *)
(* ------------------------------------------------------------------ *)

type append_result = {
  app_file : string;
  app_adds : int;
  app_dels : int;
  app_new_terms : int;
  app_chain_stamp : int;
}

let append ?(adds = []) ?(dels = []) path =
  let n_existing = List.length (discover_segments path) in
  let enc = load path in
  let dict = E.dictionary enc in
  let parent_terms = Rdf.Dictionary.size dict in
  let module TS = Rdf.Triple.Set in
  let add_set = TS.of_list adds and del_set = TS.of_list dels in
  let encode_opt tr =
    match
      ( Rdf.Dictionary.find dict tr.Rdf.Triple.s,
        Rdf.Dictionary.find dict tr.Rdf.Triple.p,
        Rdf.Dictionary.find dict tr.Rdf.Triple.o )
    with
    | Some s, Some p, Some o -> Some (s, p, o)
    | _ -> None
  in
  let present tr =
    match encode_opt tr with Some (s, p, o) -> E.mem enc s p o | None -> false
  in
  (* Normalize against the live overlay: adds already present and
     deletions of absent triples drop out (a triple both added and
     deleted here nets to "present", so if it already is, both drop).
     The invariants this buys — segment adds absent below them, dels
     present, disjoint — keep the chain's live count exactly
     base + Σ(adds − dels) and let the merge kernel skip slack
     handling. *)
  let dels_n =
    TS.filter (fun t -> present t && not (TS.mem t add_set)) del_set
  in
  let adds_n = TS.filter (fun t -> not (present t)) add_set in
  if TS.is_empty adds_n && TS.is_empty dels_n then None
  else begin
    (* Interning in canonical Triple.Set order keeps new-term ids — and
       with them the segment bytes and stamp — deterministic. *)
    let add_ids =
      Array.of_list
        (List.map (Rdf.Dictionary.encode_triple dict) (TS.elements adds_n))
    in
    let del_ids =
      Array.of_list
        (List.map (fun t -> Option.get (encode_opt t)) (TS.elements dels_n))
    in
    Array.sort (E.compare_in E.Spo) add_ids;
    Array.sort (E.compare_in E.Spo) del_ids;
    let new_total = Rdf.Dictionary.size dict in
    let new_terms =
      Array.init (new_total - parent_terms) (fun i ->
          serialize_term (Rdf.Dictionary.term_of dict (parent_terms + i)))
    in
    let parent_stamp = -1 - E.epoch enc in
    let file = seg_path path (n_existing + 1) in
    let offsets, blob = dict_sections new_terms in
    let triples arr =
      triples_section (Array.length arr) (fun f ->
          Array.iter (fun (s, p, o) -> f s p o) arr)
    in
    let seg_stamp =
      write_file segment_kind file
        ~words:
          [|
            parent_stamp;
            0 (* stamp *);
            Array.length add_ids;
            Array.length del_ids;
            Array.length new_terms;
            parent_terms;
          |]
        ~sections:[| offsets; blob; triples add_ids; triples del_ids |]
    in
    Some
      {
        app_file = file;
        app_adds = Array.length add_ids;
        app_dels = Array.length del_ids;
        app_new_terms = Array.length new_terms;
        app_chain_stamp = fold_stamp parent_stamp seg_stamp;
      }
  end

(* The live triples of [enc], as overlay ids straight from its SPO
   view, rebuilt in canonical id space — no term-level decode. *)
let canonical enc =
  let spo = Array.make (E.cardinal enc) (0, 0, 0) and i = ref 0 in
  E.iter_index enc E.Spo (fun s p o ->
      spo.(!i) <- (s, p, o);
      incr i);
  E.canonical ~identity:0 (E.dictionary enc) spo

type compact_result = { folded : int; compact_stamp : int }

let compact path =
  let segs = discover_segments path in
  (* The canonical rebuild assigns the ids a fresh compile of the same
     triples would, so the compacted stamp equals the monolithic one.
     Crash safety: the new base lands first (atomic rename); segments
     are unlinked after, and a crash in the window leaves segments whose
     parent stamp no longer matches — the next load fails loudly with
     [Delta_chain_broken] instead of replaying stale deltas. *)
  let stamp = write_store (canonical (load path)) path in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) segs;
  fsync_dir path;
  { folded = List.length segs; compact_stamp = stamp }

(* ------------------------------------------------------------------ *)
(* Info                                                                *)
(* ------------------------------------------------------------------ *)

type section_info = { sec_name : string; sec_bytes : int }

type segment_info = {
  seg_file : string;
  seg_adds : int;
  seg_dels : int;
  seg_new_terms : int;
  seg_stamp : int;
  seg_chain_stamp : int;
  seg_bytes : int;
}

type chain = Single | Chained of segment_info list

type info = {
  version : int;
  triples : int;
  base_triples : int;
  terms : int;
  predicates : int;
  stamp : int;
  chain_stamp : int;
  identity : int;
  file_bytes : int;
  total_bytes : int;
  sections : section_info list;
  chain : chain;
}

let sections_of kind h =
  Array.to_list
    (Array.map2
       (fun (sec_name, _) (_, sec_bytes) -> { sec_name; sec_bytes })
       kind.k_sections h.f_table)

let info ?(verify = false) path =
  with_chain ~verify path (fun h _ ~chain_stamp ~terms steps ->
      let w = h.f_words in
      let segs =
        List.map
          (fun (sd, seg_chain_stamp) ->
            let sw = sd.sd.f_words in
            {
              seg_file = sd.sd.f_path;
              seg_adds = sw.(s_adds);
              seg_dels = sw.(s_dels);
              seg_new_terms = sw.(s_new_terms);
              seg_stamp = sw.(s_stamp);
              seg_chain_stamp;
              seg_bytes = sd.sd.f_bytes;
            })
          steps
      in
      {
        version = format_version;
        triples =
          List.fold_left
            (fun live s -> live + s.seg_adds - s.seg_dels)
            w.(b_triples) segs;
        base_triples = w.(b_triples);
        terms;
        predicates = w.(b_preds);
        stamp = w.(b_stamp);
        chain_stamp;
        identity = identity_of_stamp chain_stamp;
        file_bytes = h.f_bytes;
        total_bytes =
          h.f_bytes + List.fold_left (fun a s -> a + s.seg_bytes) 0 segs;
        sections = sections_of base_kind h;
        chain = (match segs with [] -> Single | l -> Chained l);
      })
