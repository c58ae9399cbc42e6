(* Format v2 (lib/storage): delta segments. The load-bearing property
   is differential — a base store plus any chain of appended segments
   must be indistinguishable from a monolithic store recompiled from the
   same triple set: same answers, same counts, same planner statistics
   (compared through terms; the two id spaces differ). Plus chain
   validation, compact round-trips, and corruption fuzzing of segment
   files — damage always surfaces as [Wdsparql_error.Store_error]. *)

module E = Encoded.Encoded_graph
module Err = Wdsparql_error
module TS = Rdf.Triple.Set

let base_graph seed =
  Rdf.Generator.random_graph ~seed ~n:8 ~predicates:[ "q0"; "q1"; "q2" ] ~m:30

(* A disjoint-ish pool to draw additions from: overlapping subjects,
   one predicate the base never mentions, some fresh nodes — so appends
   grow the dictionary. *)
let add_pool seed =
  Rdf.Generator.random_graph ~seed ~n:11 ~predicates:[ "q1"; "q2"; "q3" ] ~m:24

let with_dir f =
  let dir = Filename.temp_file "wdsparql_delta" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let fault_of f =
  match f () with
  | _ -> None
  | exception Err.Error (Err.Store_error { fault; _ }) -> Some fault

let structured_only f =
  match f () with
  | _ -> true
  | exception Err.Error _ -> true
  | exception _ -> false

let pp_fault = Fmt.of_to_string (fun f -> Fmt.str "%a" Err.pp_store_fault f)
let fault_t = Alcotest.testable pp_fault ( = )

let solutions ~optimize pattern graph =
  let plan = Wd_core.Engine.plan ~optimize pattern in
  Wd_core.Engine.solutions plan graph

(* The overlay store must agree with a monolithic compile of the same
   triple set on everything the planner and the evaluators consume.
   Statistics are compared through terms: an id of the monolithic store
   is translated to the overlay's id space via the dictionaries. *)
let check_equivalent ~ctx overlay mono =
  Alcotest.(check int) (ctx ^ ": cardinal") (E.cardinal mono)
    (E.cardinal overlay);
  let dm = E.dictionary mono and dv = E.dictionary overlay in
  Alcotest.(check int)
    (ctx ^ ": distinct subjects")
    (E.distinct_subjects mono)
    (E.distinct_subjects overlay);
  Alcotest.(check int)
    (ctx ^ ": distinct objects")
    (E.distinct_objects mono)
    (E.distinct_objects overlay);
  Alcotest.(check int)
    (ctx ^ ": distinct predicates")
    (E.distinct_predicates mono)
    (E.distinct_predicates overlay);
  for id = 0 to Rdf.Dictionary.size dm - 1 do
    let t = Rdf.Dictionary.term_of dm id in
    match Rdf.Dictionary.find dv t with
    | None ->
        Alcotest.failf "%s: term %s of the monolithic store is missing" ctx
          (Fmt.str "%a" Rdf.Term.pp t)
    | Some vid ->
        let a = E.predicate_stats mono id
        and b = E.predicate_stats overlay vid in
        Alcotest.(check (triple int int int))
          (ctx ^ ": predicate stats via terms")
          (a.E.triples, a.E.distinct_subjects, a.E.distinct_objects)
          (b.E.triples, b.E.distinct_subjects, b.E.distinct_objects);
        Alcotest.(check int)
          (ctx ^ ": match_count ?p")
          (E.match_count mono E.unbound id E.unbound)
          (E.match_count overlay E.unbound vid E.unbound)
  done;
  (* membership agrees triple for triple (and the overlay holds nothing
     extra — the cardinals already matched) *)
  for i = 0 to E.cardinal mono - 1 do
    let s, p, o = E.nth_spo mono i in
    let enc t = Option.get (Rdf.Dictionary.find dv (Rdf.Dictionary.term_of dm t)) in
    Alcotest.(check bool) (ctx ^ ": mem") true
      (E.mem overlay (enc s) (enc p) (enc o))
  done

let check_answers ~ctx ~seed handle mono_graph =
  for q = 1 to 3 do
    let pattern =
      Workload.Query_families.random_wd_pattern ~seed:((seed * 5) + q)
        ~triples:4 ~vars:4 ~preds:2 ~depth:2 ~union:1
    in
    List.iter
      (fun optimize ->
        let reference = solutions ~optimize pattern mono_graph in
        let got = solutions ~optimize pattern handle in
        if not (Sparql.Mapping.Set.equal reference got) then
          Alcotest.failf "%s: answers differ at seed %d (%s): %s" ctx seed
            (if optimize then "optimize on" else "optimize off")
            (Sparql.Printer.to_string pattern))
      [ true; false ]
  done

(* ------------------------------------------------------------------ *)
(* Randomized append sequences vs monolithic recompile                 *)
(* ------------------------------------------------------------------ *)

let test_append_differential () =
  for seed = 1 to 8 do
    with_dir (fun dir ->
        let path = Filename.concat dir "s.wds" in
        let g0 = base_graph seed in
        Storage.save (E.of_graph g0) path;
        let current = ref (TS.of_list (Rdf.Graph.triples g0)) in
        for step = 1 to 3 do
          let pool =
            Rdf.Graph.triples (add_pool ((seed * 13) + step))
          in
          let adds =
            List.filteri (fun i _ -> i mod (step + 1) = 0) pool
          in
          let dels =
            TS.elements !current
            |> List.filteri (fun i _ -> i mod 4 = step mod 4)
            |> List.filter (fun t -> not (List.mem t adds))
          in
          (match Storage.append ~adds ~dels path with
          | Some r ->
              Alcotest.(check bool)
                "segment file exists" true
                (Sys.file_exists r.Storage.app_file)
          | None ->
              (* possible only if every add was present and every del
                 absent — not with these pools *)
              Alcotest.fail "append produced no segment");
          current :=
            TS.union (TS.diff !current (TS.of_list dels)) (TS.of_list adds);
          let mono_graph = Rdf.Graph.of_triples (TS.elements !current) in
          let mono = E.of_graph mono_graph in
          E.clear_cache ();
          let overlay = Storage.load ~verify:true path in
          let ctx = Printf.sprintf "seed %d step %d" seed step in
          check_equivalent ~ctx overlay mono;
          (* compacting a copy of the chain — real overlay ids, dead
             terms and all — writes the monolithic compile's bytes *)
          let copy = Filename.concat dir "c.wds" in
          write_file copy (read_file path);
          for k = 1 to step do
            write_file (Storage.seg_path copy k)
              (read_file (Storage.seg_path path k))
          done;
          let whole = Filename.concat dir "m.wds" in
          Storage.save mono whole;
          Alcotest.(check int) (ctx ^ ": compacted copy stamp = monolithic")
            (Storage.info whole).Storage.stamp
            (Storage.compact copy).Storage.compact_stamp;
          E.clear_cache ();
          check_answers ~ctx ~seed (Storage.load_graph path) mono_graph;
          (* the chain's identity changed with the append, and info
             agrees with the live view *)
          let i = Storage.info path in
          Alcotest.(check int) (ctx ^ ": info live triples")
            (TS.cardinal !current) i.Storage.triples;
          Alcotest.(check int) (ctx ^ ": info identity")
            (E.epoch overlay) i.Storage.identity;
          match i.Storage.chain with
          | Storage.Chained segs ->
              Alcotest.(check int) (ctx ^ ": segment count") step
                (List.length segs)
          | _ -> Alcotest.fail (ctx ^ ": expected a chained store")
        done)
  done

(* One append of a whole pool, loaded under [~verify], against the
   recompile of the union of base and pool. *)
let test_whole_pool_append () =
  with_dir (fun dir ->
      let path = Filename.concat dir "s.wds" in
      let g0 = base_graph 9 in
      Storage.save (E.of_graph g0) path;
      let pool = Rdf.Graph.triples (add_pool 90) in
      ignore (Storage.append ~adds:pool path);
      let live =
        TS.elements
          (TS.union (TS.of_list (Rdf.Graph.triples g0)) (TS.of_list pool))
      in
      let mono_graph = Rdf.Graph.of_triples live in
      let mono = E.of_graph mono_graph in
      E.clear_cache ();
      check_equivalent ~ctx:"whole pool" (Storage.load ~verify:true path) mono;
      E.clear_cache ();
      check_answers ~ctx:"whole pool" ~seed:9 (Storage.load_graph path)
        mono_graph)

let test_append_normalization () =
  with_dir (fun dir ->
      let path = Filename.concat dir "s.wds" in
      let g = base_graph 3 in
      Storage.save (E.of_graph g) path;
      let present = Rdf.Graph.triples g in
      let absent = Rdf.Graph.triples (add_pool 99) in
      let absent = List.filter (fun t -> not (List.mem t present)) absent in
      (* adds already present + deletes of absent triples net to zero *)
      Alcotest.(check bool) "no-op append writes nothing" true
        (Storage.append ~adds:present ~dels:absent path = None);
      Alcotest.(check bool) "no segment file" false
        (Sys.file_exists (Storage.seg_path path 1));
      (* a triple added and deleted in the same call nets to present:
         if it already is, both drop *)
      Alcotest.(check bool) "add+del of a present triple is a no-op" true
        (Storage.append ~adds:[ List.hd present ] ~dels:[ List.hd present ]
           path
        = None);
      (* identity unchanged by the no-ops *)
      let i = Storage.info path in
      Alcotest.(check int) "stamp identity" i.Storage.stamp
        i.Storage.chain_stamp)

(* ------------------------------------------------------------------ *)
(* Compact round-trip                                                  *)
(* ------------------------------------------------------------------ *)

let test_compact_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "s.wds" in
      let g0 = base_graph 5 in
      Storage.save (E.of_graph g0) path;
      let adds = Rdf.Graph.triples (add_pool 50) in
      let dels =
        List.filteri (fun i _ -> i mod 3 = 0) (Rdf.Graph.triples g0)
        |> List.filter (fun t -> not (List.mem t adds))
      in
      ignore (Storage.append ~adds ~dels path);
      ignore
        (Storage.append
           ~dels:(List.filteri (fun i _ -> i mod 5 = 0) adds)
           path);
      E.clear_cache ();
      let before = Storage.load path in
      let live =
        List.init (E.cardinal before) (fun i ->
            Rdf.Dictionary.decode_triple (E.dictionary before)
              (E.nth_spo before i))
      in
      let r = Storage.compact path in
      Alcotest.(check int) "both segments folded" 2 r.Storage.folded;
      (* bit-identical to a fresh compile of the same triples: compare
         content stamps (which cover every payload byte) *)
      let fresh = Filename.concat dir "fresh.wds" in
      Storage.save (E.of_graph (Rdf.Graph.of_triples live)) fresh;
      let fi = Storage.info fresh and ci = Storage.info path in
      Alcotest.(check int) "compacted stamp = fresh compile stamp"
        fi.Storage.stamp ci.Storage.stamp;
      Alcotest.(check bool) "chain is single again"
        true (ci.Storage.chain = Storage.Single);
      Alcotest.(check bool) "segment files gone" false
        (Sys.file_exists (Storage.seg_path path 1));
      E.clear_cache ();
      let after = Storage.load ~verify:true path in
      Alcotest.(check int) "live count preserved" (List.length live)
        (E.cardinal after))

(* ------------------------------------------------------------------ *)
(* Chain validation                                                    *)
(* ------------------------------------------------------------------ *)

let chained_store dir =
  let path = Filename.concat dir "s.wds" in
  let g0 = base_graph 7 in
  Storage.save (E.of_graph g0) path;
  let pool = Rdf.Graph.triples (add_pool 70) in
  ignore (Storage.append ~adds:(List.filteri (fun i _ -> i mod 2 = 0) pool) path);
  ignore (Storage.append ~adds:(List.filteri (fun i _ -> i mod 2 = 1) pool) path);
  path

let test_chain_validation () =
  (* a gap in the numbering: .d1 removed while .d2 remains *)
  with_dir (fun dir ->
      let path = chained_store dir in
      Sys.remove (Storage.seg_path path 1);
      Alcotest.(check (option fault_t)) "gap in segment numbering"
        (Some Err.Corrupt)
        (fault_of (fun () -> Storage.load path)));
  (* the base was re-saved under the segments: parent stamp mismatch *)
  with_dir (fun dir ->
      let path = chained_store dir in
      Storage.save (E.of_graph (base_graph 8)) path;
      match fault_of (fun () -> Storage.load path) with
      | Some (Err.Delta_chain_broken _) -> ()
      | other ->
          Alcotest.failf "re-saved base: expected Delta_chain_broken, got %s"
            (match other with
            | None -> "success"
            | Some f -> Fmt.str "%a" pp_fault f));
  (* tampered parent-stamp bytes in the second segment *)
  with_dir (fun dir ->
      let path = chained_store dir in
      let seg = Storage.seg_path path 2 in
      let b = Bytes.of_string (read_file seg) in
      Bytes.set b 24 (Char.chr (Char.code (Bytes.get b 24) lxor 1));
      write_file seg (Bytes.to_string b);
      match fault_of (fun () -> Storage.load path) with
      | Some (Err.Delta_chain_broken _) -> ()
      | _ -> Alcotest.fail "tampered parent: expected Delta_chain_broken")

(* ------------------------------------------------------------------ *)
(* Segment corruption fuzzing                                          *)
(* ------------------------------------------------------------------ *)

let test_segment_fuzz () =
  with_dir (fun dir ->
      let path = chained_store dir in
      let seg = Storage.seg_path path 1 in
      let whole = read_file seg in
      let size = String.length whole in
      (* truncation at every layer: short-magic lengths must read as
         Truncated (the bytes prefix a known magic), never Bad_magic *)
      List.iter
        (fun len ->
          write_file seg (String.sub whole 0 len);
          Alcotest.(check (option fault_t))
            (Printf.sprintf "segment truncated to %d bytes" len)
            (Some Err.Truncated)
            (fault_of (fun () -> Storage.load path)))
        [ 0; 4; 7; 8; 100; 255 ];
      List.iter
        (fun len ->
          write_file seg (String.sub whole 0 len);
          Alcotest.(check bool)
            (Printf.sprintf "structured at %d bytes" len)
            true
            (structured_only (fun () -> Storage.load path)))
        [ 256; size / 2; size - 1 ];
      (* bit flips across the header: always the structured error (or a
         provably benign statistics change), never a crash *)
      for pos = 0 to min 255 (size - 1) do
        let b = Bytes.of_string whole in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
        write_file seg (Bytes.to_string b);
        Alcotest.(check bool)
          (Printf.sprintf "header flip at %d" pos)
          true
          (structured_only (fun () -> Storage.load path))
      done;
      (* payload flips under ~verify: caught by the segment stamp; without
         ~verify the load may succeed, but decoding every triple of the
         merged store must then stay structured *)
      let step = max 1 ((size - 256) / 16) in
      let pos = ref 256 in
      while !pos < size do
        let b = Bytes.of_string whole in
        Bytes.set b !pos (Char.chr (Char.code (Bytes.get b !pos) lxor 0x04));
        write_file seg (Bytes.to_string b);
        Alcotest.(check bool)
          (Printf.sprintf "payload flip at %d" !pos)
          true
          (structured_only (fun () -> Storage.load ~verify:true path));
        Alcotest.(check bool)
          (Printf.sprintf "unverified use after payload flip at %d" !pos)
          true
          (structured_only (fun () ->
               let enc = Storage.load path in
               let d = E.dictionary enc in
               for i = 0 to E.cardinal enc - 1 do
                 List.iter
                   (fun nth ->
                     ignore (Rdf.Dictionary.decode_triple d (nth enc i)))
                   [ E.nth_spo; E.nth_pos; E.nth_osp ]
               done));
        pos := !pos + step
      done;
      write_file seg whole;
      ignore (Storage.load ~verify:true path))

(* ------------------------------------------------------------------ *)
(* Short-magic discrimination                                          *)
(* ------------------------------------------------------------------ *)

(* Each row fails the same way through every entry point that opens a
   store, and writes nothing; only the retired shard-manifest magic
   passes the CLI's store sniff, so such a file fails as a store rather
   than as Turtle. *)
let test_short_magic () =
  let tmp = Filename.temp_file "wdsparql_magic" ".wds" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun (bytes, expected, sniffed, what) ->
          write_file tmp bytes;
          List.iter
            (fun (entry, f) ->
              Alcotest.(check (option fault_t)) (what ^ ": " ^ entry)
                (Some expected) (fault_of f))
            [
              ("load", fun () -> ignore (Storage.load tmp));
              ("info", fun () -> ignore (Storage.info tmp));
              ("append", fun () -> ignore (Storage.append tmp));
              ("compact", fun () -> ignore (Storage.compact tmp));
            ];
          Alcotest.(check bool) (what ^ ": sniffed as a store") sniffed
            (Storage.looks_like_store tmp);
          Alcotest.(check bool) (what ^ ": no segment written") false
            (Sys.file_exists (Storage.seg_path tmp 1)))
        [
          ("", Err.Truncated, false, "empty file is truncated");
          ("WDS", Err.Truncated, false, "store-magic prefix is truncated");
          ( "WDSMANI",
            Err.Truncated,
            false,
            "manifest-magic prefix is truncated" );
          ( "WDSMANI1" ^ String.make 248 '\000',
            Err.Bad_magic,
            true,
            "retired shard manifest is bad magic" );
          ("XYZ", Err.Bad_magic, false, "foreign short file is bad magic");
          ( "NOTASTORE!",
            Err.Bad_magic,
            false,
            "foreign long file is bad magic" );
        ])

(* ------------------------------------------------------------------ *)
(* Reload                                                              *)
(* ------------------------------------------------------------------ *)

(* A server reloading after every append swaps its graph handle and
   drops the old one. The registered-store table must not pin the
   dropped versions: once their handles are collected, only the live
   handle's store stays registered. *)
let test_reload_releases_stores () =
  with_dir (fun dir ->
      let path = Filename.concat dir "s.wds" in
      Storage.save (E.of_graph (base_graph 17)) path;
      Gc.full_major ();
      let baseline = E.registered_live () in
      let r = Rdf.Term.iri "p:r" in
      let n k = Rdf.Term.iri (Printf.sprintf "n:%d" k) in
      let pattern =
        match Sparql.Parser.parse "{ ?a p:r ?b }" with
        | Ok p -> p
        | Error msg -> Alcotest.fail msg
      in
      let current = ref (Storage.load_graph path) in
      for v = 1 to 20 do
        ignore (Storage.append ~adds:[ Rdf.Triple.make (n v) r (n (v + 1)) ] path);
        current := Storage.load_graph path;
        Alcotest.(check int)
          (Printf.sprintf "version %d answers on the swapped handle" v)
          v
          (Sparql.Mapping.Set.cardinal
             (solutions ~optimize:true pattern !current))
      done;
      Gc.full_major ();
      Alcotest.(check int) "only the live handle's store stays registered"
        (baseline + 1) (E.registered_live ());
      Alcotest.(check int) "the live handle still answers after the sweep" 20
        (Sparql.Mapping.Set.cardinal (solutions ~optimize:true pattern !current));
      current := Rdf.Graph.empty;
      Gc.full_major ();
      Alcotest.(check int) "dropping the last handle releases its store"
        baseline (E.registered_live ()))

(* ------------------------------------------------------------------ *)
(* The range search on every bound mask and backend                     *)
(* ------------------------------------------------------------------ *)

(* [match_count], [iter_matching] and [mem] of [store] against a linear
   filter over [truth], the store's triple set, on every bound mask of
   (s, p, o), with keys at 0, at the largest id, at the absent-term
   sentinel and at the positions of a few stored triples. *)
let check_range_search ~ctx store truth =
  let dict = E.dictionary store in
  let id term = Option.get (Rdf.Dictionary.find dict term) in
  let ids =
    List.map
      (fun t -> Rdf.Triple.(id t.s, id t.p, id t.o))
      (TS.elements truth)
  in
  let largest = Rdf.Dictionary.size dict - 1 in
  let absent = Encoded.Encoded_hom.absent_id in
  let picks = List.filteri (fun i _ -> i mod 7 = 0) ids in
  let keys proj =
    List.sort_uniq Int.compare (0 :: largest :: absent :: List.map proj picks)
  in
  let ks = keys (fun (s, _, _) -> s)
  and kp = keys (fun (_, p, _) -> p)
  and ko = keys (fun (_, _, o) -> o) in
  let opts bound k = if bound then List.map Option.some k else [ None ] in
  let agrees q = function None -> true | Some k -> k = q in
  let probe = function None -> E.unbound | Some k -> k in
  let sorted l = List.sort (E.compare_in E.Spo) l in
  for mask = 0 to 7 do
    List.iter
      (fun s ->
        List.iter
          (fun p ->
            List.iter
              (fun o ->
                let expected =
                  List.filter
                    (fun (ts, tp, to_) ->
                      agrees ts s && agrees tp p && agrees to_ o)
                    ids
                in
                let what =
                  let pp = function None -> "_" | Some k -> string_of_int k in
                  Printf.sprintf "%s (%s, %s, %s)" ctx (pp s) (pp p) (pp o)
                in
                Alcotest.(check int) (what ^ ": match_count")
                  (List.length expected)
                  (E.match_count store (probe s) (probe p) (probe o));
                let got = ref [] in
                E.iter_matching store (probe s) (probe p) (probe o)
                  (fun s p o -> got := (s, p, o) :: !got);
                Alcotest.(check (list (triple int int int)))
                  (what ^ ": iter_matching") (sorted expected) (sorted !got);
                match s, p, o with
                | Some s, Some p, Some o ->
                    Alcotest.(check bool) (what ^ ": mem") (expected <> [])
                      (E.mem store s p o)
                | _ -> ())
              (opts (mask land 4 <> 0) ko))
          (opts (mask land 2 <> 0) kp))
      (opts (mask land 1 <> 0) ks)
  done;
  List.iter
    (fun t ->
      Alcotest.(check bool) (ctx ^ ": every triple is a member") true
        (let s, p, o = t in
         E.mem store s p o))
    ids

(* [compare_in] orders raw triples as their rotated keys order. *)
let perm_order =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"compare_in = order of the rotated keys"
       QCheck.(pair (triple small_int small_int small_int)
                 (triple small_int small_int small_int))
       (fun (a, b) ->
         List.for_all
           (fun perm ->
             Int.compare (E.compare_in perm a b) 0
             = Int.compare (compare (E.key perm a) (E.key perm b)) 0)
           [ E.Spo; E.Pos; E.Osp ]))

let range_search_backends =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:"range search = linear filter on every backend"
       QCheck.(int_range 1 100_000)
       (fun seed ->
         let g0 = base_graph seed in
         let pool = Rdf.Graph.triples (add_pool seed) in
         let truth0 = TS.of_list (Rdf.Graph.triples g0) in
         check_range_search ~ctx:"heap" (E.of_graph g0) truth0;
         with_dir (fun dir ->
             let path = Filename.concat dir "r.wds" in
             Storage.save (E.of_graph g0) path;
             E.clear_cache ();
             check_range_search ~ctx:"mmap" (Storage.load path) truth0;
             let adds = List.filteri (fun i _ -> i mod 2 = 0) pool in
             let dels =
               List.filteri (fun i _ -> i mod 3 = 0) (TS.elements truth0)
               |> List.filter (fun t -> not (List.mem t adds))
             in
             ignore (Storage.append ~adds ~dels path);
             let more = List.filteri (fun i _ -> i mod 2 = 1) pool in
             ignore (Storage.append ~adds:more ~dels:[] path);
             let truth =
               TS.union (TS.diff truth0 (TS.of_list dels))
                 (TS.of_list (adds @ more))
             in
             E.clear_cache ();
             check_range_search ~ctx:"overlay" (Storage.load path) truth);
         true))

let () =
  Alcotest.run "delta"
    [
      ( "append",
        [
          Alcotest.test_case "randomized chains = monolithic recompile"
            `Quick test_append_differential;
          Alcotest.test_case "whole-pool append = monolithic recompile" `Quick
            test_whole_pool_append;
          Alcotest.test_case "normalization drops no-op deltas" `Quick
            test_append_normalization;
        ] );
      ( "compact",
        [
          Alcotest.test_case "round-trips to the fresh-compile stamp" `Quick
            test_compact_roundtrip;
        ] );
      ( "chain",
        [
          Alcotest.test_case "gaps and broken parents rejected" `Quick
            test_chain_validation;
          Alcotest.test_case "segment corruption is structured" `Quick
            test_segment_fuzz;
        ] );
      ("range", [ perm_order; range_search_backends ]);
      ( "magic",
        [
          Alcotest.test_case "short files: Truncated vs Bad_magic" `Quick
            test_short_magic;
        ] );
      ( "reload",
        [
          Alcotest.test_case "dropped versions leave the registry" `Quick
            test_reload_releases_stores;
        ] );
    ]
