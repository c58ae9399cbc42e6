(* PR 7: the cost-based planner (lib/optimizer) and its integration.

   The contract under test:
   - the optimizer never changes answers: 300 random (query, store)
     instances evaluated with --optimize off / on, and with the exact
     homomorphism maximality test, all agree with the reference algebra
     evaluator;
   - without an order, Encoded_hom.fold makes exactly the choices of
     per-depth rescoring: same homomorphisms in the same sequence;
   - compiled orders are permutations of the node's patterns, estimates
     are nonnegative and finite, and the cost model is monotone under
     binding (more bound variables can only shrink an estimate);
   - the zero-pattern guard in Encoded_hom.fold: a node with no triple
     patterns yields exactly one homomorphism (the prefix itself), with
     or without an order;
   - --explain surfaces the decisions: compiled order, estimates next
     to actuals, and each node's exact-first maximality test with its
     cap. *)

open Rdf
module Enumerate = Wd_core.Enumerate
module Explain = Wd_core.Explain
module Join_order = Optimizer.Join_order
module Cost_model = Optimizer.Cost_model
module Encoded_graph = Encoded.Encoded_graph
module Encoded_hom = Encoded.Encoded_hom

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Differential fuzz: the optimizer is invisible in the answers        *)
(* ------------------------------------------------------------------ *)

let test_equivalence_300 () =
  for s = 1 to 300 do
    let pattern =
      Workload.Query_families.random_wd_pattern ~seed:s ~triples:6 ~vars:6
        ~preds:2 ~depth:3 ~union:2
    in
    let graph =
      Rdf.Generator.random_graph ~seed:(s * 7 + 1) ~n:6
        ~predicates:[ "q0"; "q1" ] ~m:18
    in
    let forest = Wdpt.Pattern_forest.of_algebra pattern in
    let dw = Wd_core.Domination_width.of_forest forest in
    let reference = Sparql.Eval.eval pattern graph in
    List.iter
      (fun (name, maximality, optimize) ->
        let got = Enumerate.solutions ~maximality ~optimize forest graph in
        if not (Sparql.Mapping.Set.equal got reference) then
          Alcotest.failf
            "seed %d: --optimize %s diverges from the reference evaluator\n\
             query: %s"
            s name
            (Sparql.Printer.to_string pattern))
      [
        ("off", `Pebble dw, `Off);
        ("on", `Pebble dw, `On);
        ("on, exact maximality", `Hom, `On);
      ]
  done

(* ------------------------------------------------------------------ *)
(* Planner properties                                                  *)
(* ------------------------------------------------------------------ *)

let nvars = 6

(* Random compiled patterns over [nvars] slots: variables and small
   constant ids (some absent from the store's dictionary, which must be
   fine — absent ids just estimate to 0). *)
let pterm_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun v -> Encoded_hom.Var v) (int_bound (nvars - 1)));
        (2, map (fun c -> Encoded_hom.Const c) (int_bound 12));
      ])

let pattern_gen = QCheck.Gen.(triple pterm_gen pterm_gen pterm_gen)

let instance_gen =
  QCheck.Gen.(
    map3
      (fun seed pats bound_mask -> (seed, Array.of_list pats, bound_mask))
      (int_bound 1_000_000)
      (list_size (int_range 0 6) pattern_gen)
      (array_size (return nvars) bool))

let instance_arb =
  QCheck.make instance_gen ~print:(fun (seed, pats, _) ->
      Printf.sprintf "seed %d, %d patterns" seed (Array.length pats))

let store seed =
  Encoded_graph.of_graph
    (Rdf.Generator.zipf ~seed:(1 + (seed mod 97)) ~n:20
       ~predicates:[ "q0"; "q1"; "q2" ] ~m:60 ~exponent:1.2 ())

let compile_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"orders are permutations, costs sane"
       instance_arb
       (fun (seed, pats, bound_mask) ->
         let enc = store seed in
         let d =
           Join_order.compile enc ~nvars
             ~bound:(fun v -> bound_mask.(v))
             ~node:0 pats
         in
         let npat = Array.length pats in
         let seen = Array.make npat false in
         Array.iter
           (fun i ->
             if i < 0 || i >= npat || seen.(i) then
               QCheck.Test.fail_report "order is not a permutation";
             seen.(i) <- true)
           d.Join_order.order;
         Array.length d.Join_order.order = npat
         && Array.length d.Join_order.est_cards = npat
         && Array.for_all
              (fun c -> c >= 0. && Float.is_finite c)
              d.Join_order.est_cards
         && d.Join_order.est_candidates >= 0.))

let monotone_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"estimates are monotone under binding" instance_arb
       (fun (seed, pats, bound_mask) ->
         let enc = store seed in
         Array.for_all
           (fun pat ->
             let loose = Cost_model.estimate enc ~bound:(fun _ -> false) pat in
             let partial =
               Cost_model.estimate enc ~bound:(fun v -> bound_mask.(v)) pat
             in
             let tight = Cost_model.estimate enc ~bound:(fun _ -> true) pat in
             tight <= partial +. 1e-9 && partial <= loose +. 1e-9)
           pats))

(* ------------------------------------------------------------------ *)
(* Fail-first with cached scores = per-depth rescoring                 *)
(* ------------------------------------------------------------------ *)

(* Oracle: the join re-counts every remaining pattern at every depth and
   takes the first one with the fewest matches; homomorphisms in the
   order the search reaches them. *)
let rescore_all ?pre source =
  let graph = Encoded_hom.graph source in
  let pats = Encoded_hom.patterns source in
  let npat = Array.length pats in
  let asg =
    match pre with
    | Some p -> Array.copy p
    | None ->
        Array.make
          (Array.length (Encoded_hom.variables source))
          Encoded_hom.unassigned
  in
  let used = Array.make npat false and out = ref [] in
  let value = function
    | Encoded_hom.Const id -> Some id
    | Encoded_hom.Var v ->
        if asg.(v) = Encoded_hom.unassigned then None else Some asg.(v)
  in
  let rec go depth =
    if depth = npat then out := Array.copy asg :: !out
    else begin
      let best = ref (-1) and best_count = ref max_int in
      Array.iteri
        (fun i (s, p, o) ->
          if not used.(i) then begin
            let c =
              Encoded_graph.match_count graph ?s:(value s) ?p:(value p)
                ?o:(value o) ()
            in
            if c < !best_count then begin
              best := i;
              best_count := c
            end
          end)
        pats;
      used.(!best) <- true;
      let ps, pp, po = pats.(!best) in
      Encoded_graph.iter_matching graph ?s:(value ps) ?p:(value pp)
        ?o:(value po)
        ~f:(fun (ts, tp, to_) ->
          let bound = ref [] in
          let unify pt x =
            match pt with
            | Encoded_hom.Const id -> id = x
            | Encoded_hom.Var v ->
                asg.(v) = x
                || asg.(v) = Encoded_hom.unassigned
                   && begin
                        asg.(v) <- x;
                        bound := v :: !bound;
                        true
                      end
          in
          if unify ps ts && unify pp tp && unify po to_ then go (depth + 1);
          List.iter (fun v -> asg.(v) <- Encoded_hom.unassigned) !bound)
        ();
      used.(!best) <- false
    end
  in
  go 0;
  List.rev !out

let fold_matches_rescore_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400
       ~name:"fold without order = per-depth rescoring, same sequence"
       (QCheck.make QCheck.Gen.(pair (int_bound 1_000_000) (int_range 1 5)))
       (fun (seed, triples) ->
         (* patterns over the store's own vocabulary (n:i nodes, p:qj
            predicates), so joins match and scores tie often *)
         let state = Random.State.make [| seed; 41 |] in
         let term () =
           if Random.State.int state 10 < 7 then
             Term.var (Printf.sprintf "v%d" (Random.State.int state 4))
           else Generator.node (Random.State.int state 5)
         in
         let tgraph =
           Tgraphs.Tgraph.of_triples
             (List.init triples (fun _ ->
                  Triple.make (term ())
                    (Generator.pred
                       (Printf.sprintf "q%d" (Random.State.int state 2)))
                    (term ())))
         in
         let enc =
           Encoded_graph.of_graph
             (Testutil.graph_of_seed ~nodes:5 ~preds:2 ~triples:14 (seed + 1))
         in
         let source = Encoded_hom.compile tgraph enc in
         (* every other instance starts from a prefix binding slot 0 *)
         let pre =
           if seed mod 2 = 0 || Array.length (Encoded_hom.variables source) = 0
           then None
           else begin
             let p =
               Array.make
                 (Array.length (Encoded_hom.variables source))
                 Encoded_hom.unassigned
             in
             p.(0) <- seed mod 5;
             Some p
           end
         in
         let folded =
           List.rev
             (Encoded_hom.fold ?pre source ~init:[] ~f:(fun acc h ->
                  (Array.copy h :: acc, `Continue)))
         in
         folded = rescore_all ?pre source))

(* ------------------------------------------------------------------ *)
(* Zero-pattern guard                                                  *)
(* ------------------------------------------------------------------ *)

let test_zero_pattern_fold () =
  let enc =
    Encoded_graph.of_graph
      (Rdf.Generator.random_graph ~seed:3 ~n:5 ~predicates:[ "q0" ] ~m:10)
  in
  let source = Encoded_hom.compile Tgraphs.Tgraph.empty enc in
  List.iter
    (fun (name, order) ->
      let folded =
        Encoded_hom.fold ?order source ~init:[] ~f:(fun acc h ->
            (Array.copy h :: acc, `Continue))
      in
      check Alcotest.int (name ^ ": exactly one homomorphism") 1
        (List.length folded);
      check Alcotest.int (name ^ ": empty count") 1
        (Encoded_hom.count source))
    [ ("no order", None); ("empty order", Some [||]) ]

(* ------------------------------------------------------------------ *)
(* Explain surfaces the decisions                                      *)
(* ------------------------------------------------------------------ *)

let explain_pattern =
  Sparql.Parser.parse_exn
    "{ ?a p:knows ?b . ?a p:worksAt ?w . OPTIONAL { ?b p:email ?m } }"

let explain_graph = Generator.social ~seed:11 ~people:25

let test_explain_decisions () =
  let report = Explain.explain explain_pattern explain_graph in
  List.iter
    (fun tree_plan ->
      List.iter
        (fun np ->
          match np.Explain.decision with
          | None -> Alcotest.fail "optimizer on: a node plan lacks a decision"
          | Some d ->
              check Alcotest.int "order covers the node's triples"
                (List.length np.Explain.triples)
                (Array.length d.Join_order.order))
        tree_plan)
    report.Explain.trees;
  let rendered = Fmt.str "%a" Explain.pp report in
  check Alcotest.bool "maximality test and its cap are visible" true
    (Astring.String.is_infix
       ~affix:"maximality test: exact first, pebble past" rendered);
  check Alcotest.bool "estimates shown next to actuals" true
    (Astring.String.is_infix ~affix:"est ~" rendered);
  check Alcotest.bool "an unevaluated plan has no join counts" false
    (Astring.String.is_infix ~affix:"; joins " rendered);
  (* once evaluated, each OPTIONAL node reports the joins it ran *)
  let plan = Wd_core.Engine.plan explain_pattern in
  ignore (Wd_core.Engine.solutions plan explain_graph);
  let evaluated =
    Fmt.str "%a" Explain.pp_trees (Explain.trees plan explain_graph)
  in
  check Alcotest.bool "evaluated plan reports its child joins" true
    (Astring.String.is_infix ~affix:"; joins " evaluated);
  (* and with the optimizer off, no decisions are computed *)
  let off = Explain.explain ~optimize:false explain_pattern explain_graph in
  List.iter
    (List.iter (fun np ->
         check Alcotest.bool "optimizer off: no decision" true
           (np.Explain.decision = None)))
    off.Explain.trees

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "optimizer"
    [
      ( "equivalence",
        [
          Alcotest.test_case "300 random instances, three modes" `Quick
            test_equivalence_300;
        ] );
      ( "properties",
        [ compile_prop; monotone_prop; fold_matches_rescore_prop ] );
      ( "regressions",
        [
          Alcotest.test_case "zero-pattern node folds once" `Quick
            test_zero_pattern_fold;
        ] );
      ( "explain",
        [
          Alcotest.test_case "decisions and verdicts surfaced" `Quick
            test_explain_decisions;
        ] );
    ]
