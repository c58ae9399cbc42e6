(* The compiled on-disk store (lib/storage): round-trip fidelity,
   differential equivalence of evaluation over the mapped store against
   the heap store, stable identity across reloads, cache-eviction safety
   (including parallel evaluation), and corruption fuzzing — a damaged
   file must always surface as [Wdsparql_error.Store_error], never a raw
   [Failure] or a crash inside the mapping. *)

module E = Encoded.Encoded_graph
module Err = Wdsparql_error
module Budget = Resource.Budget

let graph_of seed =
  Rdf.Generator.random_graph ~seed ~n:8 ~predicates:[ "q0"; "q1"; "q2" ] ~m:30

let with_store_file enc f =
  let path = Filename.temp_file "wdsparql_test" ".wds" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Storage.save enc path;
      f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Round trip                                                          *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  for seed = 1 to 25 do
    let g = graph_of seed in
    let enc = E.of_graph g in
    with_store_file enc (fun path ->
        let l = Storage.load ~verify:true path in
        Alcotest.(check int) "cardinal" (E.cardinal enc) (E.cardinal l);
        Alcotest.(check bool) "identity is negative" true (E.epoch l < 0);
        (* the saved dictionary preserves ids, so the raw permutations
           must agree tuple-for-tuple *)
        for i = 0 to E.cardinal enc - 1 do
          Alcotest.(check (triple int int int))
            "spo tuple" (E.nth_spo enc i) (E.nth_spo l i);
          Alcotest.(check (triple int int int))
            "pos tuple" (E.nth_pos enc i) (E.nth_pos l i);
          Alcotest.(check (triple int int int))
            "osp tuple" (E.nth_osp enc i) (E.nth_osp l i)
        done;
        (* dictionary: decode and reverse lookup agree on every id *)
        let d = E.dictionary enc and dl = E.dictionary l in
        Alcotest.(check int) "dict size" (Rdf.Dictionary.size d)
          (Rdf.Dictionary.size dl);
        for id = 0 to Rdf.Dictionary.size d - 1 do
          let t = Rdf.Dictionary.term_of d id in
          Alcotest.(check bool) "decode agrees" true
            (Rdf.Term.equal t (Rdf.Dictionary.term_of dl id));
          Alcotest.(check (option int)) "reverse lookup" (Some id)
            (Rdf.Dictionary.find dl t)
        done;
        Alcotest.(check (option int)) "unknown term absent" None
          (Rdf.Dictionary.find dl (Rdf.Term.iri "no:such:term"));
        (* planner statistics: the store's precomputed seed answers must
           equal the heap store's scans *)
        Alcotest.(check int) "distinct subjects" (E.distinct_subjects enc)
          (E.distinct_subjects l);
        Alcotest.(check int) "distinct objects" (E.distinct_objects enc)
          (E.distinct_objects l);
        Alcotest.(check int) "distinct predicates"
          (E.distinct_predicates enc) (E.distinct_predicates l);
        for id = 0 to Rdf.Dictionary.size d - 1 do
          let a = E.predicate_stats enc id and b = E.predicate_stats l id in
          Alcotest.(check (triple int int int))
            "predicate stats"
            (a.E.triples, a.E.distinct_subjects, a.E.distinct_objects)
            (b.E.triples, b.E.distinct_subjects, b.E.distinct_objects)
        done;
        (* match_count probes across binding shapes *)
        for probe = 0 to 20 do
          let id k = (probe * 7 + k) mod max 1 (Rdf.Dictionary.size d) in
          let s = id 0 and p = id 1 and o = id 2 and u = E.unbound in
          Alcotest.(check int) "count ?s" (E.match_count enc s u u)
            (E.match_count l s u u);
          Alcotest.(check int) "count ?p" (E.match_count enc u p u)
            (E.match_count l u p u);
          Alcotest.(check int) "count ?so" (E.match_count enc s u o)
            (E.match_count l s u o);
          Alcotest.(check int) "count ?spo"
            (E.match_count enc s p o)
            (E.match_count l s p o)
        done;
        (* the graph handle forces the term-level decode lazily and must
           reproduce the source graph exactly *)
        let g2 = Storage.load_graph path in
        Alcotest.(check bool) "handle epoch negative" true
          (Rdf.Graph.epoch g2 < 0);
        Alcotest.(check bool) "decoded graph equal" true (Rdf.Graph.equal g g2))
  done

let test_empty_graph () =
  let enc = E.of_graph Rdf.Graph.empty in
  with_store_file enc (fun path ->
      let l = Storage.load ~verify:true path in
      Alcotest.(check int) "empty cardinal" 0 (E.cardinal l);
      Alcotest.(check int) "no predicates" 0 (E.distinct_predicates l);
      let g2 = Storage.load_graph path in
      Alcotest.(check bool) "empty graph equal" true
        (Rdf.Graph.equal Rdf.Graph.empty g2))

let test_identity_stable () =
  let g = graph_of 42 in
  with_store_file (E.of_graph g) (fun path ->
      let h1 = Storage.load_graph path in
      let h2 = Storage.load_graph path in
      Alcotest.(check int) "same file, same identity" (Rdf.Graph.epoch h1)
        (Rdf.Graph.epoch h2);
      let i = Storage.info path in
      Alcotest.(check int) "info agrees with the handles" i.Storage.identity
        (Rdf.Graph.epoch h1);
      Alcotest.(check bool) "disjoint from heap epochs" true
        (Rdf.Graph.epoch h1 < 0 && Rdf.Graph.epoch g > 0))

(* ------------------------------------------------------------------ *)
(* Differential evaluation: heap store vs mapped store                 *)
(* ------------------------------------------------------------------ *)

let solutions ~optimize pattern graph =
  let plan = Wd_core.Engine.plan ~optimize pattern in
  Wd_core.Engine.solutions plan graph

let test_differential () =
  let cases = 200 in
  for seed = 1 to cases do
    let pattern =
      Workload.Query_families.random_wd_pattern ~seed ~triples:5 ~vars:5
        ~preds:2 ~depth:2 ~union:2
    in
    let g =
      Rdf.Generator.random_graph ~seed:((seed * 7) + 1) ~n:6
        ~predicates:[ "q0"; "q1" ] ~m:18
    in
    with_store_file (E.of_graph g) (fun path ->
        let h = Storage.load_graph path in
        List.iter
          (fun optimize ->
            let reference = solutions ~optimize pattern g in
            let mapped = solutions ~optimize pattern h in
            if not (Sparql.Mapping.Set.equal reference mapped) then
              Alcotest.failf "store evaluation differs at seed %d (%s): %s"
                seed
                (if optimize then "optimize on" else "optimize off")
                (Sparql.Printer.to_string pattern))
          [ true; false ];
        (* the naive evaluator goes through the handle's lazy term-level
           decode — exercise it on a sample of the cases *)
        if seed mod 20 = 0 then begin
          let forest = Wdpt.Pattern_forest.of_algebra pattern in
          let naive_ref = Wdpt.Semantics.solutions forest g in
          let naive_mapped = Wdpt.Semantics.solutions forest h in
          if not (Sparql.Mapping.Set.equal naive_ref naive_mapped) then
            Alcotest.failf "naive evaluation differs at seed %d" seed
        end)
  done

(* Cache eviction while a mapped store is in use: dropping the registry
   must never invalidate a live evaluation, and a handle resolved after
   the drop falls back to its exact term-level decode. *)
let test_clear_cache_mid_life () =
  let g = graph_of 7 in
  let pattern =
    Workload.Query_families.random_wd_pattern ~seed:7 ~triples:4 ~vars:4
      ~preds:2 ~depth:2 ~union:1
  in
  with_store_file (E.of_graph g) (fun path ->
      let h = Storage.load_graph path in
      let reference = solutions ~optimize:true pattern g in
      let before = solutions ~optimize:true pattern h in
      E.clear_cache ();
      Gc.full_major ();
      (* registry is gone: this resolution falls back to encoding the
         handle's decoded triples — answers must not change *)
      let after = solutions ~optimize:true pattern h in
      (* a fresh load re-registers and must agree too *)
      let reloaded =
        solutions ~optimize:true pattern (Storage.load_graph path)
      in
      Alcotest.(check bool) "before eviction" true
        (Sparql.Mapping.Set.equal reference before);
      Alcotest.(check bool) "after eviction (decode fallback)" true
        (Sparql.Mapping.Set.equal reference after);
      Alcotest.(check bool) "after reload" true
        (Sparql.Mapping.Set.equal reference reloaded))

(* ------------------------------------------------------------------ *)
(* Corruption fuzzing                                                  *)
(* ------------------------------------------------------------------ *)

let fault_of f =
  match f () with
  | _ -> None
  | exception Err.Error (Err.Store_error { fault; _ }) -> Some fault

(* Any exception escaping a load of a damaged file must be the
   structured error — nothing else. *)
let structured_only f =
  match f () with
  | _ -> true
  | exception Err.Error _ -> true
  | exception _ -> false

let pp_fault = Fmt.of_to_string (fun f -> Fmt.str "%a" Err.pp_store_fault f)
let fault_t = Alcotest.testable pp_fault ( = )

let test_truncation () =
  let g = graph_of 3 in
  with_store_file (E.of_graph g) (fun path ->
      let whole = read_file path in
      let size = String.length whole in
      let tmp = Filename.temp_file "wdsparql_trunc" ".wds" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          (* below the magic: the bytes still prefix a store magic, so
             this is a short file, not a foreign one — Truncated *)
          List.iter
            (fun len ->
              write_file tmp (String.sub whole 0 len);
              Alcotest.(check (option fault_t))
                (Printf.sprintf "truncated to %d bytes" len)
                (Some Err.Truncated)
                (fault_of (fun () -> Storage.load tmp)))
            [ 0; 4; 7 ];
          (* inside the header: Truncated *)
          List.iter
            (fun len ->
              write_file tmp (String.sub whole 0 len);
              Alcotest.(check (option fault_t))
                (Printf.sprintf "truncated to %d bytes" len)
                (Some Err.Truncated)
                (fault_of (fun () -> Storage.load tmp)))
            [ 8; 100; 255 ];
          (* inside the payload: a section extends past end-of-file *)
          List.iter
            (fun len ->
              write_file tmp (String.sub whole 0 len);
              Alcotest.(check (option fault_t))
                (Printf.sprintf "truncated to %d bytes" len)
                (Some Err.Truncated)
                (fault_of (fun () -> Storage.load tmp)))
            [ 256; 300; size / 2; size - 1 ]))

let test_bit_flips () =
  let g = graph_of 5 in
  with_store_file (E.of_graph g) (fun path ->
      let whole = read_file path in
      let size = String.length whole in
      let tmp = Filename.temp_file "wdsparql_flip" ".wds" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          let flip pos bit =
            let b = Bytes.of_string whole in
            Bytes.set b pos
              (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
            write_file tmp (Bytes.to_string b)
          in
          (* magic and version bytes: the precise fault *)
          flip 0 3;
          Alcotest.(check (option fault_t)) "flipped magic"
            (Some Err.Bad_magic)
            (fault_of (fun () -> Storage.load tmp));
          flip 8 0;
          (match fault_of (fun () -> Storage.load tmp) with
          | Some (Err.Version_mismatch _) -> ()
          | other ->
              Alcotest.failf "flipped version: expected Version_mismatch, got %s"
                (match other with
                | None -> "success"
                | Some f -> Fmt.str "%a" Err.pp_store_fault f));
          (* every header byte: a flip is either rejected with a
             structured fault or provably benign (a statistics hint) —
             never anything unstructured *)
          for pos = 0 to 255 do
            flip pos (pos mod 8);
            Alcotest.(check bool)
              (Printf.sprintf "header flip at %d is structured" pos)
              true
              (structured_only (fun () -> Storage.load ~verify:true tmp))
          done;
          (* payload flips under ~verify: always caught (checksum), save
             for flips the structural validation rejects first *)
          let step = max 1 (size / 64) in
          let pos = ref 256 in
          while !pos < size do
            flip !pos (!pos mod 8);
            (match fault_of (fun () -> Storage.load ~verify:true tmp) with
            | Some
                ( Err.Checksum_mismatch | Err.Corrupt | Err.Truncated ) ->
                ()
            | other ->
                Alcotest.failf
                  "payload flip at %d: expected a structured fault, got %s"
                  !pos
                  (match other with
                  | None -> "success"
                  | Some f -> Fmt.str "%a" Err.pp_store_fault f));
            (* without ~verify the load may succeed, but then using the
               store must stay structured: enumerate and decode it all *)
            Alcotest.(check bool)
              (Printf.sprintf "unverified use after flip at %d" !pos)
              true
              (structured_only (fun () ->
                   let enc = Storage.load tmp in
                   let d = E.dictionary enc in
                   E.iter_matching enc E.unbound E.unbound E.unbound
                     (fun _ _ _ -> ());
                   for i = 0 to E.cardinal enc - 1 do
                     List.iter
                       (fun nth ->
                         ignore (Rdf.Dictionary.decode_triple d (nth enc i)))
                       [ E.nth_spo; E.nth_pos; E.nth_osp ]
                   done;
                   for id = 0 to Rdf.Dictionary.size d - 1 do
                     ignore (Rdf.Dictionary.term_of d id)
                   done;
                   ignore (E.distinct_subjects enc)));
            pos := !pos + step
          done))

(* Ids out of range inside an index section: one at [n_terms] and one
   negative, each written alone into each of the three index sections,
   halfway through it where the range searches look first. Loaded
   without [~verify], probes under all 8 bound masks and an evaluation
   may fail only with [Store_error Corrupt]: a search compares the ids
   it reads in place, and every read checks its id's range, so no id a
   probe hands on is outside the dictionary. *)
let test_corrupt_ids () =
  let g = graph_of 13 in
  let enc = E.of_graph g in
  let corrupt_only f =
    match f () with
    | _ -> true
    | exception Err.Error (Err.Store_error { fault = Err.Corrupt; _ }) -> true
    | exception _ -> false
  in
  let pattern =
    Sparql.Parser.parse_exn "{ ?a p:q0 ?b OPTIONAL { ?b p:q1 ?c } }"
  in
  with_store_file enc (fun path ->
      let whole = read_file path in
      (* the term count is the second count word; the section table
         starts at byte 80, one (offset, length) pair per section, and
         sections 3-5 are the spo, pos and osp indexes *)
      let word at = Int64.to_int (String.get_int64_le whole at) in
      let n_terms = word 32 in
      let tmp = Filename.temp_file "wdsparql_ids" ".wds" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          List.iter
            (fun section ->
              let off = word (80 + (16 * section))
              and len = word (80 + (16 * section) + 8) in
              let mid = off + (24 * (len / 24 / 2)) in
              List.iter
                (fun (what, at, id) ->
                  let b = Bytes.of_string whole in
                  Bytes.set_int64_le b at (Int64.of_int id);
                  write_file tmp (Bytes.to_string b);
                  let ctx = Printf.sprintf "section %d, %s" section what in
                  let l = Storage.load tmp in
                  List.iter
                    (fun i ->
                      let ks, kp, ko = E.nth_spo enc i in
                      for mask = 0 to 7 do
                        let key bit k = if mask land bit <> 0 then k else E.unbound in
                        let s = key 1 ks and p = key 2 kp and o = key 4 ko in
                        Alcotest.(check bool)
                          (Printf.sprintf "%s: match_count, mask %d" ctx mask)
                          true
                          (corrupt_only (fun () -> E.match_count l s p o));
                        Alcotest.(check bool)
                          (Printf.sprintf "%s: iter_matching, mask %d" ctx mask)
                          true
                          (corrupt_only (fun () ->
                               E.iter_matching l s p o (fun s p o ->
                                   ignore
                                     (Rdf.Dictionary.decode_triple
                                        (E.dictionary l) (s, p, o)))))
                      done)
                    [ 0; E.cardinal enc / 2; E.cardinal enc - 1 ];
                  Alcotest.(check bool) (ctx ^ ": evaluation") true
                    (corrupt_only (fun () ->
                         Wd_core.Engine.answer_rows
                           (Wd_core.Engine.plan pattern)
                           (Storage.load_graph tmp))))
                [ ("id >= n_terms", mid, n_terms); ("negative id", mid + 8, -3) ])
            [ 3; 4; 5 ]))

(* The reader rejects a store claiming a future format version. *)
let test_version_gate () =
  let g = graph_of 11 in
  with_store_file (E.of_graph g) (fun path ->
      let whole = read_file path in
      let b = Bytes.of_string whole in
      Bytes.set_int64_le b 8 9L;
      let tmp = Filename.temp_file "wdsparql_ver" ".wds" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          write_file tmp (Bytes.to_string b);
          match fault_of (fun () -> Storage.load tmp) with
          | Some (Err.Version_mismatch { found = 9; expected = 2 }) -> ()
          | _ -> Alcotest.fail "expected Version_mismatch {found = 9}"))

(* Section-table entries that stay inside the file but cannot be a
   section must be rejected as Corrupt, not as a truncation. In-bounds
   but overlapping sections matter most: the per-section bounds and
   length checks alone would admit them, and the aliased bytes would
   silently yield wrong answers. *)
let test_overlapping_sections () =
  let g = graph_of 7 in
  with_store_file (E.of_graph g) (fun path ->
      let whole = read_file path in
      (* The section table starts at byte 80, one (offset, length) pair of
         two 64-bit words per section. *)
      let sec0_off = String.get_int64_le whole 80 in
      let tmp = Filename.temp_file "wdsparql_overlap" ".wds" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          List.iter
            (fun (what, word_at, value) ->
              let b = Bytes.of_string whole in
              Bytes.set_int64_le b word_at value;
              write_file tmp (Bytes.to_string b);
              Alcotest.(check (option fault_t)) what (Some Err.Corrupt)
                (fault_of (fun () -> Storage.load tmp)))
            [
              (* section 1 (term-sort) at section 0's offset: both stay
                 inside the file with their expected lengths, so only the
                 disjointness check fires *)
              ("overlapping sections rejected", 80 + 16, sec0_off);
              ("section offset inside the header", 80, 0L);
              ("negative section length", 80 + 8, -8L);
            ]))

(* Regression: view-backed dictionaries memoize decodes and reverse
   lookups on the read path, so concurrent access (the server's threads)
   must be serialized — unsynchronized Hashtbl mutation can lose
   entries, answer wrongly, or loop. Hammer one loaded store's
   dictionary from several domains at once, staggered so first-decode
   collisions on the shared memo are likely, and check every answer. *)
let test_parallel_dictionary () =
  let g = graph_of 23 in
  let enc = E.of_graph g in
  with_store_file enc (fun path ->
      let l = Storage.load path in
      let dl = E.dictionary l in
      let d = E.dictionary enc in
      let n = Rdf.Dictionary.size d in
      let expected = Array.init n (Rdf.Dictionary.term_of d) in
      let worker k () =
        let ok = ref true in
        for round = 1 to 3 do
          ignore round;
          for i = 0 to n - 1 do
            let id = (i + (k * n / 4)) mod n in
            let t = Rdf.Dictionary.term_of dl id in
            ok :=
              !ok
              && Rdf.Term.equal t expected.(id)
              && Rdf.Dictionary.find dl t = Some id
          done
        done;
        !ok
      in
      let domains = List.init 4 (fun k -> Domain.spawn (worker k)) in
      List.iter
        (fun dom ->
          Alcotest.(check bool) "parallel decode agrees" true
            (Domain.join dom))
        domains)

let test_not_a_store () =
  let tmp = Filename.temp_file "wdsparql_notastore" ".ttl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      write_file tmp "<a:s> <a:p> <a:o> .\n";
      Alcotest.(check (option fault_t)) "turtle file is not a store"
        (Some Err.Bad_magic)
        (fault_of (fun () -> Storage.load tmp));
      Alcotest.(check bool) "sniff rejects it" false
        (Storage.looks_like_store tmp));
  Alcotest.(check bool) "sniff tolerates a missing file" false
    (Storage.looks_like_store "/no/such/file.wds");
  match Storage.load "/no/such/file.wds" with
  | _ -> Alcotest.fail "missing file must not load"
  | exception Err.Error (Err.Io_error _) -> ()
  | exception _ -> Alcotest.fail "missing file must raise Io_error"

(* ------------------------------------------------------------------ *)
(* Format identity                                                     *)
(* ------------------------------------------------------------------ *)

(* The MD5 of every file the three writers produce for one fixed
   fixture — a base store, one appended segment, and a 3-slice manifest
   with its members. Stamps are only ever compared within one run, so
   this is the pin that keeps the on-disk bytes identical across
   commits: a change here is a format change. *)
let golden_digests =
  [
    ("g.wds", "55ba47cd0916f12dec79b5d46a8e102b");
    ("g.wds.d1", "e5e27ca7509d88567a14a62b0e310203");
    ("g.man", "4ad5d0e666cb12f1facce542a908262e");
    ("g.man.s0", "b7736a87011b6df3962bb14bbc0ce58a");
    ("g.man.s1", "f7bbdda56824e6752e602a7daee0430c");
    ("g.man.s2", "e2bd27b9425e7c5eb9616590ff23219a");
  ]

let test_format_identity () =
  let dir = Filename.temp_file "wdsparql_golden" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let file name = Filename.concat dir name in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (file e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let g = graph_of 17 in
      Storage.save (E.of_graph g) (file "g.wds");
      let delta =
        Rdf.Generator.random_graph ~seed:18 ~n:11
          ~predicates:[ "q1"; "q3" ] ~m:12
      in
      ignore
        (Storage.append
           ~adds:(Rdf.Graph.triples delta)
           ~dels:(List.filteri (fun i _ -> i mod 5 = 0) (Rdf.Graph.triples g))
           (file "g.wds"));
      ignore (Storage.shard ~slices:3 ~src:(file "g.wds") (file "g.man"));
      List.iter
        (fun (name, digest) ->
          Alcotest.(check string) name digest
            (Digest.to_hex (Digest.string (read_file (file name)))))
        golden_digests)

(* A deferred handle whose term index must never be built, registered
   to a heap store: every engine entry point — membership under the
   pebble and the naive plan, the natural algorithm, enumeration under
   both plans, the explain report — resolves it through the registered
   store, so the thunk raising means some path fell back to the term
   index. Membership is
   probed on every answer and on two near-misses per answer (a binding
   dropped; a binding moved to an IRI outside the store). *)
let test_deferred_index_never_forced () =
  for seed = 1 to 25 do
    let g = graph_of seed in
    let pattern =
      Workload.Query_families.random_wd_pattern ~seed ~triples:4 ~vars:4
        ~preds:3 ~depth:2 ~union:1
    in
    let handle =
      Rdf.Graph.deferred ~epoch:(-(1 lsl 40) - seed) (fun () ->
          failwith "deferred term index forced")
    in
    E.register handle (E.of_graph g);
    let forest = Wdpt.Pattern_forest.of_algebra pattern in
    let pebble = Wd_core.Engine.plan pattern in
    let naive = Wd_core.Engine.plan ~force:Wd_core.Engine.Naive pattern in
    let reference = Sparql.Eval.eval pattern g in
    let name what = Printf.sprintf "seed %d: %s" seed what in
    Alcotest.(check bool) (name "pebble solutions") true
      (Sparql.Mapping.Set.equal reference
         (Wd_core.Engine.solutions pebble handle));
    Alcotest.(check bool) (name "naive solutions") true
      (Sparql.Mapping.Set.equal reference
         (Wd_core.Engine.solutions naive handle));
    let probes =
      Sparql.Mapping.Set.fold
        (fun mu acc ->
          match Sparql.Mapping.to_list mu with
          | [] -> mu :: acc
          | (x, _) :: rest ->
              mu :: Sparql.Mapping.of_list rest
              :: Sparql.Mapping.add x (Rdf.Iri.of_string "z:absent") mu
              :: acc)
        reference []
    in
    List.iter
      (fun mu ->
        let expected = Sparql.Eval.check pattern g mu in
        Alcotest.(check bool) (name "pebble check") expected
          (Wd_core.Engine.check pebble handle mu);
        Alcotest.(check bool) (name "naive check") expected
          (Wd_core.Engine.check naive handle mu);
        Alcotest.(check bool) (name "Semantics.check") expected
          (Wdpt.Semantics.check forest handle mu))
      probes;
    (* [eval --explain]'s after-evaluation report reads the encoded
       store's statistics: the term-level estimates, no term index *)
    let stats = Rdf.Stats.of_graph g in
    List.iter
      (List.iter (fun (np : Wd_core.Explain.node_plan) ->
           List.iter
             (fun (tp : Wd_core.Explain.triple_plan) ->
               Alcotest.(check (float 1e-9)) (name "explain estimate")
                 (Rdf.Stats.estimated_matches stats tp.triple)
                 tp.estimated)
             np.triples))
      (Wd_core.Explain.trees pebble handle)
  done

let () =
  Alcotest.run "persist"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "25 random graphs round-trip" `Quick
            test_roundtrip;
          Alcotest.test_case "empty graph round-trips" `Quick
            test_empty_graph;
          Alcotest.test_case "identity stable across loads" `Quick
            test_identity_stable;
          Alcotest.test_case "format identity: golden file digests" `Quick
            test_format_identity;
        ] );
      ( "differential",
        [
          Alcotest.test_case "200 cases: mapped = heap (optimize on/off)"
            `Quick test_differential;
          Alcotest.test_case "cache eviction mid-life" `Quick
            test_clear_cache_mid_life;
          Alcotest.test_case "deferred handle: term index never forced"
            `Quick test_deferred_index_never_forced;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "truncation at every layer" `Quick
            test_truncation;
          Alcotest.test_case "bit flips: header and payload" `Quick
            test_bit_flips;
          Alcotest.test_case "corrupt ids stay structured on the search path"
            `Quick test_corrupt_ids;
          Alcotest.test_case "future version rejected" `Quick
            test_version_gate;
          Alcotest.test_case "overlapping sections rejected" `Quick
            test_overlapping_sections;
          Alcotest.test_case "non-store inputs rejected" `Quick
            test_not_a_store;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "dictionary decode from 4 domains" `Quick
            test_parallel_dictionary;
        ] );
    ]
