(* Solving CLIQUE with a SPARQL evaluator: a demonstration of the paper's
   W[1]-hardness reduction (Theorem 2 / Lemma 2 / Section 4.2).

   Given an undirected graph H, the reduction manufactures a well-designed
   pattern forest F (the grid query family), an RDF graph G (the frozen
   Lemma-2 gadget B) and a mapping µ such that

       H has a k-clique   iff   µ ∉ ⟦F⟧G.

   Run with: dune exec examples/clique_solver.exe *)

open Graphtheory

let describe name h k =
  Fmt.pr "@.%s (n=%d, m=%d), k=%d:@." name (Ugraph.n h) (Ugraph.m h) k;
  match Hardness.Reduction.build ~k ~h with
  | Error e -> Fmt.pr "  reduction failed: %s@." e
  | Ok inst ->
      let stats = inst.Hardness.Reduction.stats in
      Fmt.pr "  gadget: %d fresh variables, %d triples (grid %dx%d)@."
        stats.Hardness.Grohe.new_vars stats.Hardness.Grohe.triples
        stats.Hardness.Grohe.grid_rows stats.Hardness.Grohe.grid_cols;
      let start = Unix.gettimeofday () in
      let via_wdeval =
        not
          (Wdpt.Semantics.check inst.Hardness.Reduction.forest
             inst.Hardness.Reduction.graph inst.Hardness.Reduction.mu)
      in
      let elapsed = Unix.gettimeofday () -. start in
      let brute = Hardness.Clique.has_clique h k in
      Fmt.pr "  wdEVAL %s %d-clique (%.3fs); brute force agrees: %b@."
        (if via_wdeval then "found a" else "found no")
        k elapsed (via_wdeval = brute);
      assert (via_wdeval = brute)

let () =
  Fmt.pr "p-CLIQUE via p-co-wdEVAL — the hardness side of the dichotomy@.";
  describe "complete graph K5" (Ugraph.complete 5) 3;
  describe "cycle C7 (triangle-free)" (Ugraph.cycle_graph 7) 3;
  describe "Erdos-Renyi G(8, 0.4)" (Hardness.Clique.random_graph ~seed:11 ~n:8 ~edge_prob:0.4) 3;
  describe "Erdos-Renyi G(8, 0.15)" (Hardness.Clique.random_graph ~seed:12 ~n:8 ~edge_prob:0.15) 3;
  Fmt.pr
    "@.Because such grid queries have unbounded domination width, no \
     polynomial algorithm can evaluate the whole family unless FPT = W[1] \
     (Theorem 3).@."
