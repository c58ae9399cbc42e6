(* End-to-end scenarios: text in (Turtle + query syntax), answers out,
   every evaluation path agreeing. *)

open Rdf

let check = Alcotest.check

let social_turtle =
  {|# a tiny social network
person:ann  p:knows   person:bob .
person:bob  p:knows   person:cho .
person:cho  p:knows   person:ann .
person:ann  p:email   mailto:ann .
person:bob  p:worksAt company:acme .
company:acme p:locatedIn city:oslo .
person:cho  p:worksAt company:zeta .
|}

let load () =
  match Turtle.parse_graph social_turtle with
  | Ok g -> g
  | Error e -> Alcotest.failf "turtle: %s" e

let run_query src g =
  let p = Sparql.Parser.parse_exn src in
  (p, Sparql.Eval.eval p g)

let all_evaluators_agree p g =
  let reference = Sparql.Eval.eval p g in
  let forest = Wdpt.Pattern_forest.of_algebra p in
  let wdpt = Wdpt.Semantics.solutions forest g in
  check Testutil.mapping_set "wdpt enumeration" reference wdpt;
  let dw = Wd_core.Domination_width.of_forest forest in
  let pebble = Wd_core.Pebble_eval.solutions ~k:dw forest g in
  check Testutil.mapping_set "pebble enumeration" reference pebble;
  Sparql.Mapping.Set.iter
    (fun mu ->
      check Alcotest.bool "naive membership" true (Wdpt.Semantics.check forest g mu);
      check Alcotest.bool "pebble membership" true
        (Wd_core.Pebble_eval.check ~k:dw forest g mu))
    reference;
  reference

let test_optional_profile () =
  let g = load () in
  let p, sols =
    run_query
      "{ ?a p:knows ?b . OPTIONAL { ?a p:email ?m } OPTIONAL { ?b p:worksAt ?c . ?c p:locatedIn ?where } }"
      g
  in
  check Alcotest.int "three knowers" 3 (Sparql.Mapping.Set.cardinal sols);
  (* ann knows bob: email present AND bob's office resolves *)
  let ann =
    Sparql.Mapping.Set.filter
      (fun mu ->
        Sparql.Mapping.find (Variable.of_string "a") mu
        = Some (Iri.of_string "person:ann"))
      sols
  in
  check Alcotest.int "one ann row" 1 (Sparql.Mapping.Set.cardinal ann);
  let ann = Sparql.Mapping.Set.choose ann in
  check Alcotest.(option string) "email bound" (Some "mailto:ann")
    (Option.map Iri.to_string (Sparql.Mapping.find (Variable.of_string "m") ann));
  check Alcotest.(option string) "office city" (Some "city:oslo")
    (Option.map Iri.to_string (Sparql.Mapping.find (Variable.of_string "where") ann));
  (* bob knows cho: no email, zeta has no city -> both OPT arms dangle *)
  let bob =
    Sparql.Mapping.Set.filter
      (fun mu ->
        Sparql.Mapping.find (Variable.of_string "a") mu
        = Some (Iri.of_string "person:bob"))
      sols
  in
  let bob = Sparql.Mapping.Set.choose bob in
  check Alcotest.int "bob row stays partial" 2 (Sparql.Mapping.cardinal bob);
  ignore (all_evaluators_agree p g)

let test_union_query () =
  let g = load () in
  let p, sols =
    run_query "{ ?a p:email ?contact } UNION { ?a p:worksAt ?contact }" g
  in
  check Alcotest.int "three rows" 3 (Sparql.Mapping.Set.cardinal sols);
  ignore (all_evaluators_agree p g)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_classify_pipeline () =
  let p =
    Sparql.Parser.parse_exn
      "{ ?a p:knows ?b . OPTIONAL { ?b p:worksAt ?c . ?c p:locatedIn ?w } }"
  in
  let c = Wd_core.Classify.classify p in
  check Alcotest.bool "wd" true c.Wd_core.Classify.well_designed;
  check Alcotest.(option int) "dw = 1" (Some 1) c.Wd_core.Classify.domination_width;
  check Alcotest.(option int) "bw = 1" (Some 1) c.Wd_core.Classify.branch_treewidth;
  let report = Fmt.str "%a" Wd_core.Classify.pp c in
  check Alcotest.bool "report mentions PTIME" true (contains report "PTIME")

let test_paper_example1_end_to_end () =
  (* P1 from Example 1 over data where the first OPT arm can and cannot
     extend *)
  let g =
    Graph.of_triples
      [
        Triple.make (Term.iri "n:a") (Term.iri "p:p") (Term.iri "n:b");
        Triple.make (Term.iri "n:c") (Term.iri "p:q") (Term.iri "n:a");
        Triple.make (Term.iri "n:b") (Term.iri "p:r") (Term.iri "n:d");
        Triple.make (Term.iri "n:d") (Term.iri "p:r") (Term.iri "n:e");
      ]
  in
  let p =
    Sparql.Parser.parse_exn
      "{ { ?x p:p ?y . OPTIONAL { ?z p:q ?x } } OPTIONAL { ?y p:r ?o1 . ?o1 p:r ?o2 } }"
  in
  let sols = all_evaluators_agree p g in
  (* the unique solution extends through both OPT arms *)
  check Alcotest.int "one solution" 1 (Sparql.Mapping.Set.cardinal sols);
  let mu = Sparql.Mapping.Set.choose sols in
  check Alcotest.int "all five variables bound" 5 (Sparql.Mapping.cardinal mu)

let test_roundtrip_through_files () =
  (* serialize, reload, re-evaluate: same answers *)
  let g = load () in
  let s = Turtle.to_string g in
  match Turtle.parse_graph s with
  | Error e -> Alcotest.fail e
  | Ok g' ->
      let p = Sparql.Parser.parse_exn "{ ?a p:knows ?b }" in
      check Testutil.mapping_set "same answers after roundtrip"
        (Sparql.Eval.eval p g) (Sparql.Eval.eval p g')

let () =
  Alcotest.run "integration"
    [
      ( "scenarios",
        [
          Alcotest.test_case "optional profile query" `Quick test_optional_profile;
          Alcotest.test_case "union query" `Quick test_union_query;
          Alcotest.test_case "classify pipeline" `Quick test_classify_pipeline;
          Alcotest.test_case "paper example 1 end-to-end" `Quick
            test_paper_example1_end_to_end;
          Alcotest.test_case "turtle roundtrip evaluation" `Quick
            test_roundtrip_through_files;
        ] );
    ]
