(* Quickstart: load RDF data, parse a well-designed query, inspect its
   widths, and evaluate it three ways.

   Run with: dune exec examples/quickstart.exe *)

let data =
  {|# people and their (partially known) details
person:ann p:knows person:bob .
person:bob p:knows person:cho .
person:ann p:email mailto:ann@example.org .
person:bob p:worksAt company:acme .
|}

let query =
  "{ ?who p:knows ?friend . OPTIONAL { ?who p:email ?mail } OPTIONAL { ?friend p:worksAt ?office } }"

let () =
  (* 1. Load the data. *)
  let graph =
    match Rdf.Turtle.parse_graph data with
    | Ok g -> g
    | Error e -> failwith e
  in
  Fmt.pr "Loaded %d triples.@." (Rdf.Graph.cardinal graph);

  (* 2. Parse the query and check it is well-designed. *)
  let pattern = Sparql.Parser.parse_exn query in
  Fmt.pr "@.Query:@.%s@." (Sparql.Printer.to_string pattern);
  (match Sparql.Well_designed.check pattern with
  | Ok () -> Fmt.pr "The query is well-designed.@."
  | Error v -> Fmt.pr "Not well-designed: %a@." Sparql.Well_designed.pp_violation v);

  (* 3. Structural analysis: the paper's width measures. *)
  let classification = Wd_core.Classify.classify pattern in
  Fmt.pr "@.%a@." Wd_core.Classify.pp classification;

  (* 4. Evaluate: the reference algebra semantics, the wdPT-based exact
     algorithm, and the paper's polynomial pebble-game algorithm all
     return the same answers. *)
  let forest = Wdpt.Pattern_forest.of_algebra pattern in
  let reference = Sparql.Eval.eval pattern graph in
  let k =
    match classification.Wd_core.Classify.domination_width with
    | Some k -> k
    | None -> 1
  in
  let pebble = Wd_core.Pebble_eval.solutions ~k forest graph in
  assert (Sparql.Mapping.Set.equal reference pebble);
  Fmt.pr "@.Solutions (%d):@." (Sparql.Mapping.Set.cardinal reference);
  Sparql.Mapping.Set.iter
    (fun mu -> Fmt.pr "  %a@." Sparql.Mapping.pp mu)
    reference;

  (* 5. Membership checks. *)
  let mu =
    Sparql.Mapping.of_list
      [
        (Rdf.Variable.of_string "who", Rdf.Iri.of_string "person:ann");
        (Rdf.Variable.of_string "friend", Rdf.Iri.of_string "person:bob");
        (Rdf.Variable.of_string "mail", Rdf.Iri.of_string "mailto:ann@example.org");
        (Rdf.Variable.of_string "office", Rdf.Iri.of_string "company:acme");
      ]
  in
  Fmt.pr "@.µ = %a@." Sparql.Mapping.pp mu;
  Fmt.pr "µ ∈ ⟦P⟧G (naive):  %b@." (Wdpt.Semantics.check forest graph mu);
  Fmt.pr "µ ∈ ⟦P⟧G (pebble): %b@." (Wd_core.Pebble_eval.check ~k forest graph mu)
