(* Tests for the storage/planning layer: statistics, N-Triples I/O, the
   dictionary-encoded store and its join engine, plan explanation, and the
   dw-recognition short-circuit. *)

open Rdf

let check = Alcotest.check

let qcheck ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let seed_arb = QCheck.make QCheck.Gen.(int_bound 100000)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let sample_graph () =
  Graph.of_triples
    [
      Triple.make (Term.iri "n:a") (Term.iri "p:knows") (Term.iri "n:b");
      Triple.make (Term.iri "n:a") (Term.iri "p:knows") (Term.iri "n:c");
      Triple.make (Term.iri "n:b") (Term.iri "p:knows") (Term.iri "n:c");
      Triple.make (Term.iri "n:a") (Term.iri "p:mail") (Term.iri "m:a");
    ]

let test_stats_basics () =
  let s = Stats.of_graph (sample_graph ()) in
  check Alcotest.int "total" 4 (Stats.triples s);
  check Alcotest.int "subjects" 2 (Stats.distinct_subjects s);
  check Alcotest.int "objects" 3 (Stats.distinct_objects s);
  check Alcotest.int "two predicates" 2 (List.length (Stats.predicates s));
  (match Stats.predicate s (Iri.of_string "p:knows") with
  | Some k ->
      check Alcotest.int "knows triples" 3 k.Stats.triples;
      check Alcotest.int "knows subjects" 2 k.Stats.distinct_subjects;
      check Alcotest.int "knows objects" 2 k.Stats.distinct_objects
  | None -> Alcotest.fail "knows missing");
  check Alcotest.bool "sorted by count" true
    (match Stats.predicates s with
    | (_, a) :: (_, b) :: _ -> a.Stats.triples >= b.Stats.triples
    | _ -> false)

let test_stats_selectivity () =
  let s = Stats.of_graph (sample_graph ()) in
  let sel t = Stats.selectivity s t in
  let fully_wild = Triple.make (Term.var "a") (Term.var "p") (Term.var "b") in
  check (Alcotest.float 1e-9) "wild pattern matches everything" 1.0 (sel fully_wild);
  let knows = Triple.make (Term.var "a") (Term.iri "p:knows") (Term.var "b") in
  check (Alcotest.float 1e-9) "predicate share" 0.75 (sel knows);
  let anchored =
    Triple.make (Term.iri "n:a") (Term.iri "p:knows") (Term.var "b")
  in
  check (Alcotest.float 1e-9) "bound subject divides" 0.375 (sel anchored);
  let unknown = Triple.make (Term.var "a") (Term.iri "p:zzz") (Term.var "b") in
  check (Alcotest.float 1e-9) "unknown predicate" 0.0 (sel unknown);
  check Alcotest.bool "estimates within totals" true
    (Stats.estimated_matches s knows <= 4.0)

let stats_estimates_bounded =
  qcheck ~count:60 "selectivity stays within [0, 1]" Testutil.small_graph
    (fun g ->
      let s = Stats.of_graph g in
      List.for_all
        (fun t ->
          let sel = Stats.selectivity s t in
          sel >= 0. && sel <= 1.)
        (Graph.triples g))

(* ------------------------------------------------------------------ *)
(* N-Triples                                                           *)
(* ------------------------------------------------------------------ *)

let test_ntriples_parse () =
  let src = {|# comment
<n:a> <p:knows> <n:b> .

<n:b> <p:knows> <n:c> .
|} in
  match Ntriples.parse src with
  | Ok g -> check Alcotest.int "two triples" 2 (Graph.cardinal g)
  | Error e -> Alcotest.fail e

let test_ntriples_errors () =
  let bad src =
    match Ntriples.parse src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "should not parse: %s" src
  in
  bad "<n:a> <p:b> <n:c>";
  bad "<n:a> <p:b> .";
  bad "n:a <p:b> <n:c> .";
  bad "<n:a> <p:b> <n:c> . extra";
  bad "<> <p:b> <n:c> ."

let ntriples_roundtrip =
  qcheck ~count:60 "N-Triples roundtrip" Testutil.small_graph (fun g ->
      match Ntriples.parse (Ntriples.to_string g) with
      | Ok g' -> Graph.equal g g'
      | Error _ -> false)

let test_ntriples_deterministic () =
  let g = Generator.social ~seed:1 ~people:10 in
  check Alcotest.string "stable output" (Ntriples.to_string g) (Ntriples.to_string g)

(* ------------------------------------------------------------------ *)
(* Encoded store                                                       *)
(* ------------------------------------------------------------------ *)

let test_encoded_matching () =
  let g = sample_graph () in
  let enc = Encoded.Encoded_graph.of_graph g in
  let dict = Encoded.Encoded_graph.dictionary enc in
  let id term = Option.get (Rdf.Dictionary.find dict term) in
  check Alcotest.int "cardinal" 4 (Encoded.Encoded_graph.cardinal enc);
  let count ?s ?p ?o () =
    let probe = Option.value ~default:Encoded.Encoded_graph.unbound in
    Encoded.Encoded_graph.match_count enc (probe s) (probe p) (probe o)
  in
  check Alcotest.int "all" 4 (count ());
  check Alcotest.int "by s" 3 (count ~s:(id (Term.iri "n:a")) ());
  check Alcotest.int "by p" 3 (count ~p:(id (Term.iri "p:knows")) ());
  check Alcotest.int "by o" 2 (count ~o:(id (Term.iri "n:c")) ());
  check Alcotest.int "s+p" 2
    (count ~s:(id (Term.iri "n:a")) ~p:(id (Term.iri "p:knows")) ());
  check Alcotest.int "p+o" 2
    (count ~p:(id (Term.iri "p:knows")) ~o:(id (Term.iri "n:c")) ());
  (* the case the three-permutation choice must get right: s and o bound,
     p wild *)
  check Alcotest.int "s+o" 1
    (count ~s:(id (Term.iri "n:a")) ~o:(id (Term.iri "n:c")) ());
  check Alcotest.int "s+p+o hit" 1
    (count ~s:(id (Term.iri "n:a")) ~p:(id (Term.iri "p:knows"))
       ~o:(id (Term.iri "n:b")) ());
  check Alcotest.int "s+p+o miss" 0
    (count ~s:(id (Term.iri "n:b")) ~p:(id (Term.iri "p:mail"))
       ~o:(id (Term.iri "n:c")) ());
  check Alcotest.bool "mem" true
    (Encoded.Encoded_graph.mem enc (id (Term.iri "n:a"))
       (id (Term.iri "p:knows")) (id (Term.iri "n:b")))

let encoded_matches_index =
  qcheck ~count:80 "encoded match counts = index match counts"
    Testutil.small_graph (fun g ->
      let enc = Encoded.Encoded_graph.of_graph g in
      let dict = Encoded.Encoded_graph.dictionary enc in
      let idx = Graph.to_index g in
      let terms = Term.Set.elements (Rdf.Index.terms idx) in
      let id term = Option.get (Rdf.Dictionary.find dict term) in
      let u = Encoded.Encoded_graph.unbound in
      List.for_all
        (fun t ->
          Rdf.Index.match_count idx ~s:t ()
          = Encoded.Encoded_graph.match_count enc (id t) u u
          && Rdf.Index.match_count idx ~p:t ()
             = Encoded.Encoded_graph.match_count enc u (id t) u
          && Rdf.Index.match_count idx ~o:t ()
             = Encoded.Encoded_graph.match_count enc u u (id t))
        terms)

(* The canonical builder against the builder it replaced: intern every
   term of [Graph.triples] in order, then sort the encoded triples three
   times with polymorphic [compare] on rotated tuples. *)
let oracle g =
  let dict = Rdf.Dictionary.of_graph g in
  let triples =
    Array.of_list
      (List.map (Rdf.Dictionary.encode_triple dict) (Graph.triples g))
  in
  let sorted rot =
    let a = Array.copy triples in
    Array.sort (fun x y -> compare (rot x) (rot y)) a;
    a
  in
  ( dict,
    [ sorted Fun.id; sorted (fun (s, p, o) -> (p, o, s));
      sorted (fun (s, p, o) -> (o, s, p)) ] )

let agrees_with_oracle g enc =
  let module E = Encoded.Encoded_graph in
  let dict, perms = oracle g in
  let d = E.dictionary enc in
  let term = Rdf.Dictionary.term_of in
  Rdf.Dictionary.size d = Rdf.Dictionary.size dict
  && List.for_all
       (fun id -> Term.equal (term d id) (term dict id))
       (List.init (Rdf.Dictionary.size dict) Fun.id)
  && List.for_all2
       (fun nth expected ->
         E.cardinal enc = Array.length expected
         && Array.for_all Fun.id
              (Array.mapi (fun i t -> nth enc i = t) expected))
       [ E.nth_spo; E.nth_pos; E.nth_osp ]
       perms

(* Input as the builder meets it from a store: a dictionary whose ids
   follow some other intern order and carry a dead term, and a triple
   array in any order with repeats. Terms share one pool, so a term can
   be subject, predicate and object at once. *)
let canonical_matches_oracle =
  qcheck ~count:200 "canonical = Dictionary.of_graph + polymorphic sorts"
    seed_arb (fun seed ->
      let st = Random.State.make [| seed; 15 |] in
      let pool =
        List.init (2 + Random.State.int st 10) (fun i ->
            Term.iri (Printf.sprintf "t:%d" i))
      in
      let term () = List.nth pool (Random.State.int st (List.length pool)) in
      let triples =
        List.init (Random.State.int st 30) (fun _ ->
            Triple.make (term ()) (term ()) (term ()))
      in
      let shuffle l =
        let a = Array.of_list l in
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        a
      in
      let dict =
        Rdf.Dictionary.of_terms
          (Array.to_list (shuffle (Term.iri "dead:0" :: pool)))
      in
      let repeats = List.filteri (fun i _ -> i mod 3 = 0) triples in
      let ids =
        Array.map (Rdf.Dictionary.encode_triple dict)
          (shuffle (triples @ repeats))
      in
      agrees_with_oracle (Graph.of_triples triples)
        (Encoded.Encoded_graph.canonical ~identity:0 dict ids))

let test_canonical_small () =
  let module E = Encoded.Encoded_graph in
  let iri = Term.iri in
  let empty =
    E.canonical ~identity:0 (Rdf.Dictionary.of_terms [ iri "n:x" ]) [||]
  in
  check Alcotest.int "empty: no triples" 0 (E.cardinal empty);
  check Alcotest.int "empty: dead term dropped" 0
    (Rdf.Dictionary.size (E.dictionary empty));
  check Alcotest.bool "empty graph = oracle" true
    (agrees_with_oracle Graph.empty (E.of_graph Graph.empty));
  let one = Triple.make (iri "n:b") (iri "p:q") (iri "n:a") in
  let dict = Rdf.Dictionary.of_terms [ iri "n:a"; iri "p:q"; iri "n:b" ] in
  let enc = E.canonical ~identity:0 dict [| (2, 1, 0); (2, 1, 0) |] in
  check Alcotest.bool "one triple, repeated = oracle" true
    (agrees_with_oracle (Graph.of_triples [ one ]) enc);
  check Alcotest.(list string) "fresh ids: s, then p, then o"
    [ "n:b"; "p:q"; "n:a" ]
    (List.init 3 (fun id ->
         Fmt.str "%a" Term.pp (Rdf.Dictionary.term_of (E.dictionary enc) id)));
  check Alcotest.bool "id outside the dictionary rejected" true
    (match E.canonical ~identity:0 dict [| (0, 1, 3) |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Encoded homomorphism engine                                         *)
(* ------------------------------------------------------------------ *)

let encoded_hom_agrees =
  qcheck ~count:150 "encoded join engine = term-based solver"
    seed_arb (fun seed ->
      let source = Testutil.tgraph_of_seed ~triples:3 ~vars:3 seed in
      let g = Testutil.graph_of_seed ~nodes:5 ~preds:2 ~triples:12 (seed + 1) in
      let enc = Encoded.Encoded_graph.of_graph g in
      Tgraphs.Homomorphism.count ~source ~target:(Graph.to_index g) ()
      = Encoded.Encoded_hom.count_tgraph source enc)

(* The PR 3 contract: ?pre / fold / limit on the encoded solver agree
   with the term-level solver, including prefixes binding IRIs absent
   from the dictionary, the empty prefix, and the full-domain prefix. *)
let encoded_hom_pre_limit_agrees =
  qcheck ~count:220 "encoded pre/fold/limit = term-based solver"
    seed_arb (fun seed ->
      let source = Testutil.tgraph_of_seed ~triples:3 ~vars:3 seed in
      let g = Testutil.graph_of_seed ~nodes:5 ~preds:2 ~triples:12 (seed + 1) in
      let enc = Encoded.Encoded_graph.of_graph g in
      let compiled = Encoded.Encoded_hom.compile source enc in
      let target = Graph.to_index g in
      let state = Random.State.make [| seed; 99 |] in
      let vars = Variable.Set.elements (Tgraphs.Tgraph.vars source) in
      let iris = Iri.Set.elements (Graph.dom g) in
      let pick_value () =
        (* sometimes an IRI the dictionary has never seen *)
        if iris = [] || Random.State.int state 5 = 0 then Term.iri "absent:iri"
        else Term.Iri (List.nth iris (Random.State.int state (List.length iris)))
      in
      (* mode 0: empty prefix; mode 1: full-domain prefix; mode 2: random
         subset (possibly including variables outside the source, which
         both solvers must ignore) *)
      let mode = Random.State.int state 3 in
      let pre =
        let keep () =
          match mode with
          | 0 -> false
          | 1 -> true
          | _ -> Random.State.int state 2 = 0
        in
        let base =
          List.fold_left
            (fun acc v ->
              if keep () then Variable.Map.add v (pick_value ()) acc else acc)
            Variable.Map.empty vars
        in
        if mode = 2 && Random.State.int state 2 = 0 then
          Variable.Map.add (Variable.of_string "outside") (pick_value ()) base
        else base
      in
      let norm homs =
        List.sort_uniq (Variable.Map.compare Term.compare) homs
      in
      let same a b = List.equal (Variable.Map.equal Term.equal) (norm a) (norm b) in
      let term_all = Tgraphs.Homomorphism.all ~pre ~source ~target () in
      let enc_all = Encoded.Encoded_hom.all ~pre compiled in
      let agree_all = same term_all enc_all in
      let agree_count =
        Tgraphs.Homomorphism.count ~pre ~source ~target ()
        = Encoded.Encoded_hom.count ~pre compiled
      in
      let agree_exists =
        Tgraphs.Homomorphism.exists ~pre ~source ~target ()
        = Encoded.Encoded_hom.exists ~pre compiled
      in
      (* limit: right cardinality, and every returned hom is genuine *)
      let limit = 1 + Random.State.int state 3 in
      let limited = Encoded.Encoded_hom.all ~pre ~limit compiled in
      let agree_limit =
        List.length limited = min limit (List.length term_all)
        && List.for_all
             (fun h ->
               List.exists (Variable.Map.equal Term.equal h) term_all)
             limited
      in
      (* streaming fold with early exit: the first solution (if any) is a
         genuine one, delivered through the encoded pre path *)
      let first =
        Encoded.Encoded_hom.fold
          ~pre:(Encoded.Encoded_hom.encode_pre compiled pre)
          compiled ~init:None
          ~f:(fun _ arr -> (Some (Array.copy arr), `Stop))
      in
      let agree_first =
        match first, term_all with
        | None, [] -> true
        | None, _ :: _ | Some _, [] -> false
        | Some arr, _ :: _ ->
            (* decode yields the full array; restrict to the source's
               variables before comparing against the term solver *)
            let dec = Encoded.Encoded_hom.decode compiled arr in
            let dec_own =
              Variable.Map.filter
                (fun v _ -> Variable.Set.mem v (Tgraphs.Tgraph.vars source))
                dec
            in
            List.exists (Variable.Map.equal Term.equal dec_own) term_all
      in
      agree_all && agree_count && agree_exists && agree_limit && agree_first)

let test_encoded_hom_assignments () =
  let g = Generator.transitive_tournament ~n:4 ~pred:"r" in
  let enc = Encoded.Encoded_graph.of_graph g in
  let tri =
    Tgraphs.Tgraph.of_triples
      [
        Triple.make (Term.var "a") (Term.iri "p:r") (Term.var "b");
        Triple.make (Term.var "b") (Term.iri "p:r") (Term.var "c");
        Triple.make (Term.var "a") (Term.iri "p:r") (Term.var "c");
      ]
  in
  let source = Encoded.Encoded_hom.compile tri enc in
  check Alcotest.int "4 triangles" 4 (Encoded.Encoded_hom.count source);
  check Alcotest.bool "exists" true (Encoded.Encoded_hom.exists source);
  let homs = Encoded.Encoded_hom.all source in
  check Alcotest.int "all returns them" 4 (List.length homs);
  (* decoded assignments are genuine homomorphisms *)
  List.iter
    (fun h ->
      List.iter
        (fun t ->
          check Alcotest.bool "decoded hom maps triples into G" true
            (Graph.mem g (Triple.subst (fun v -> Variable.Map.find_opt v h) t)))
        (Tgraphs.Tgraph.triples tri))
    homs

let test_encoded_unsat_constant () =
  let g = Generator.path ~n:3 ~pred:"r" in
  let enc = Encoded.Encoded_graph.of_graph g in
  let absent =
    Tgraphs.Tgraph.of_triples
      [ Triple.make (Term.var "x") (Term.iri "p:nowhere") (Term.var "y") ]
  in
  let source = Encoded.Encoded_hom.compile absent enc in
  check Alcotest.int "unknown constant -> no homs" 0
    (Encoded.Encoded_hom.count source);
  let empty_pattern = Encoded.Encoded_hom.compile Tgraphs.Tgraph.empty enc in
  check Alcotest.int "empty pattern -> one empty hom" 1
    (Encoded.Encoded_hom.count empty_pattern)

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)
(* ------------------------------------------------------------------ *)

let test_explain () =
  let g = Generator.social ~seed:2 ~people:30 in
  let p =
    Sparql.Parser.parse_exn
      "{ ?a p:knows ?b . OPTIONAL { ?b p:email ?m } }"
  in
  let report = Wd_core.Explain.explain p g in
  check Alcotest.int "one tree" 1 (List.length report.Wd_core.Explain.trees);
  let tree_plan = List.hd report.Wd_core.Explain.trees in
  check Alcotest.int "two nodes" 2 (List.length tree_plan);
  let root = List.hd tree_plan in
  check Alcotest.int "root depth 0" 0 root.Wd_core.Explain.depth;
  check Alcotest.int "root introduces a and b" 2
    (List.length root.Wd_core.Explain.new_vars);
  List.iter
    (fun np ->
      List.iter
        (fun tp ->
          check Alcotest.bool "estimates are non-negative" true
            (tp.Wd_core.Explain.estimated >= 0.))
        np.Wd_core.Explain.triples)
    tree_plan;
  (* rendering doesn't raise and mentions the algorithm *)
  let rendered = Fmt.str "%a" Wd_core.Explain.pp report in
  check Alcotest.bool "mentions pebble" true
    (let rec contains i =
       i + 6 <= String.length rendered
       && (String.sub rendered i 6 = "pebble" || contains (i + 1))
     in
     contains 0)

(* ------------------------------------------------------------------ *)
(* dw recognition                                                      *)
(* ------------------------------------------------------------------ *)

let test_at_most () =
  let f4 = Workload.Query_families.f_k 4 in
  check Alcotest.bool "dw(F_4) <= 1" true (Wd_core.Domination_width.at_most f4 1);
  let cc5 = [ Workload.Query_families.clique_child 5 ] in
  check Alcotest.bool "dw(cc5) <= 3 is false" false
    (Wd_core.Domination_width.at_most cc5 3);
  check Alcotest.bool "dw(cc5) <= 4" true (Wd_core.Domination_width.at_most cc5 4)

let at_most_consistent =
  qcheck ~count:50 "at_most agrees with of_forest" seed_arb (fun seed ->
      let p = Testutil.wd_pattern_of_seed ~triples:5 seed in
      let forest = Wdpt.Pattern_forest.of_algebra p in
      let dw = Wd_core.Domination_width.of_forest forest in
      Wd_core.Domination_width.at_most forest dw
      && ((dw <= 1) || not (Wd_core.Domination_width.at_most forest (dw - 1))))

let () =
  Alcotest.run "storage"
    [
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "selectivity" `Quick test_stats_selectivity;
          stats_estimates_bounded;
        ] );
      ( "ntriples",
        [
          Alcotest.test_case "parse" `Quick test_ntriples_parse;
          Alcotest.test_case "errors" `Quick test_ntriples_errors;
          Alcotest.test_case "deterministic" `Quick test_ntriples_deterministic;
          ntriples_roundtrip;
        ] );
      ( "encoded store",
        [
          Alcotest.test_case "matching" `Quick test_encoded_matching;
          encoded_matches_index;
          canonical_matches_oracle;
          Alcotest.test_case "canonical: empty and one triple" `Quick
            test_canonical_small;
        ] );
      ( "encoded joins",
        [
          encoded_hom_agrees;
          encoded_hom_pre_limit_agrees;
          Alcotest.test_case "assignments" `Quick test_encoded_hom_assignments;
          Alcotest.test_case "unsat constants" `Quick test_encoded_unsat_constant;
        ] );
      ("explain", [ Alcotest.test_case "report" `Quick test_explain ]);
      ( "dw recognition",
        [
          Alcotest.test_case "families" `Quick test_at_most;
          at_most_consistent;
        ] );
    ]
