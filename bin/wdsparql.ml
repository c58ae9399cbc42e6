(* wdsparql: command-line front end.

   Subcommands:
     eval       evaluate a query over a Turtle data file
     check      membership of a single mapping (naive or pebble algorithm)
     width      structural analysis: all width measures and the regime
     validate   well-designedness check with a diagnostic
     analyze    static analyzer: verdict + spans, lints, width estimates
     compile    compile a data file into an on-disk store (.wds)
     store-info print a compiled store's header (optionally checksum it)
     clique     solve k-CLIQUE via the hardness reduction (demo)

   Everywhere a data file is expected, a compiled store is accepted too
   (detected by its magic, or forced with --store); the store is mapped
   instead of parsed.

   Every subcommand accepts --timeout/--fuel/--max-solutions resource
   limits. Exit codes: 0 success, 1 negative answer (check/validate/
   containment/fuzz), 2 user error (bad input), 3 budget exhausted,
   4 internal error, 5 unusable compiled store. *)

open Cmdliner
module Budget = Resource.Budget
module E = Wdsparql_error

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> contents
  | exception Sys_error msg ->
      (* [Sys_error] messages usually lead with the path already *)
      let prefix = path ^ ": " in
      let msg =
        if String.length msg > String.length prefix
           && String.sub msg 0 (String.length prefix) = prefix
        then String.sub msg (String.length prefix) (String.length msg - String.length prefix)
        else msg
      in
      E.fail (E.Io_error { path; msg })

let load_graph path =
  (* A compiled store drops in anywhere a Turtle file does: sniff the
     magic and map it instead of parsing. *)
  if Storage.looks_like_store path then Storage.load_graph path
  else
    match Rdf.Turtle.parse_graph_err ~source:path (read_file path) with
    | Ok g -> g
    | Error e -> E.fail e

let load_query path_or_inline =
  let source, src =
    if Sys.file_exists path_or_inline then
      (path_or_inline, read_file path_or_inline)
    else ("query", path_or_inline)
  in
  match Sparql.Parser.parse src with
  | Ok p -> p
  | Error msg -> E.fail (E.Parse_error { source; line = 0; col = 0; msg })

(* Like [load_query], but with source spans — the eval path runs the
   pre-plan pruning rewrites, whose diagnostics point into the query. *)
let load_query_spanned path_or_inline =
  let source, src =
    if Sys.file_exists path_or_inline then
      (path_or_inline, read_file path_or_inline)
    else ("query", path_or_inline)
  in
  match Sparql.Parser.parse_spanned src with
  | Ok (p, spans) -> (p, spans)
  | Error msg -> E.fail (E.Parse_error { source; line = 0; col = 0; msg })

let parse_mapping spec =
  (* "x=person:ann,y=person:bob" *)
  String.split_on_char ',' spec
  |> List.filter (fun s -> String.trim s <> "")
  |> List.map (fun binding ->
         match String.index_opt binding '=' with
         | Some i -> (
             let var = String.trim (String.sub binding 0 i) in
             let value =
               String.trim
                 (String.sub binding (i + 1) (String.length binding - i - 1))
             in
             if var = "" then
               E.fail (E.Invalid_input (Fmt.str "bad binding %S: empty variable" binding));
             match Rdf.Iri.of_string value with
             | iri -> (Rdf.Variable.of_string var, iri)
             | exception Invalid_argument _ ->
                 E.fail
                   (E.Invalid_input (Fmt.str "bad binding %S: empty IRI" binding)))
         | None ->
             E.fail
               (E.Invalid_input
                  (Fmt.str "bad binding %S (expected var=iri)" binding)))
  |> Sparql.Mapping.of_list

(* Uniform failure handling: every subcommand body runs under [handle],
   which turns structured errors into a one-line stderr diagnostic and
   the documented exit code — never a backtrace. *)
let handle f =
  match f () with
  | () -> ()
  | exception exn -> (
      let err =
        match exn with
        | Wdpt.Translate.Not_well_designed v ->
            Some (E.Not_well_designed (Fmt.str "%a" Sparql.Well_designed.pp_violation v))
        | Invalid_argument msg -> Some (E.Invalid_input msg)
        | _ -> E.of_exn exn
      in
      match err with
      | Some e ->
          Fmt.epr "wdsparql: %a@." E.pp e;
          exit (E.exit_code e)
      | None ->
          Fmt.epr "wdsparql: internal error: %s@." (Printexc.to_string exn);
          exit E.exit_internal)

(* ---------------- arguments ---------------- *)

let data_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "d"; "data" ] ~docv:"FILE"
        ~doc:"Turtle data file — or a compiled store (*.wds), detected by \
              its magic and mapped instead of parsed.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"FILE"
        ~doc:"Compiled store file (see the compile subcommand). Like \
              passing it to --data, but refuses anything that is not a \
              store.")

(* One of --data/--store, resolved to a graph handle. The thunk is
   called inside [handle] so store faults get their exit code. *)
let require_graph data store () =
  match data, store with
  | Some _, Some _ ->
      E.fail (E.Invalid_input "--data and --store are mutually exclusive")
  | Some path, None -> load_graph path
  | None, Some path -> Storage.load_graph path
  | None, None ->
      E.fail (E.Invalid_input "no data: pass --data FILE or --store FILE")

let graph_term = Term.(const require_graph $ data_arg $ store_arg)

let graph_opt_term =
  let opt data store () =
    match data, store with
    | None, None -> None
    | _ -> Some (require_graph data store ())
  in
  Term.(const opt $ data_arg $ store_arg)

let query_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"QUERY"
        ~doc:"Query: a file name or an inline pattern string.")

let mapping_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "m"; "mapping" ] ~docv:"BINDINGS"
        ~doc:"Candidate mapping, e.g. 'x=person:ann,y=person:bob'.")

let algorithm_arg =
  Arg.(
    value
    & opt (some (enum [ ("naive", `Naive); ("pebble", `Pebble); ("reference", `Reference) ]))
        None
    & info [ "a"; "algorithm" ] ~docv:"ALGO"
        ~doc:"Evaluation algorithm: naive (exact homomorphism tests), pebble \
              (Theorem 1), or reference (recursive algebra semantics). \
              Default: let the engine plan (pebble at the measured width, \
              degrading gracefully under a budget).")

let pebbles_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "k" ] ~docv:"K"
        ~doc:"Domination-width bound for the pebble algorithm (defaults to \
              the computed dw of the query).")

let optimize_arg =
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) true
    & info [ "optimize" ] ~docv:"on|off"
        ~doc:"Cost-based planning (default on): every join is fail-first \
              with cached scores; 'on' breaks score ties by per-node join \
              orders compiled from store statistics, 'off' by textual \
              pattern order. Answers are identical either way.")

(* Resource limits: a spec, from which each processing stage gets a fresh
   budget (so with --timeout T, planning and evaluation may each take up
   to T — worst case ~2T end to end). *)

type budget_spec = {
  timeout : float option;
  fuel : int option;
  max_solutions : int option;
}

let budget_term =
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Wall-clock limit per processing stage; exceeding it exits \
                with code 3 (or degrades the plan where possible).")
  in
  let fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"STEPS"
          ~doc:"Abstract step limit per processing stage (deterministic \
                alternative to --timeout).")
  in
  let max_solutions_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-solutions" ] ~docv:"N"
          ~doc:"Stop after N solutions have been produced.")
  in
  let make timeout fuel max_solutions = { timeout; fuel; max_solutions } in
  Term.(const make $ timeout_arg $ fuel_arg $ max_solutions_arg)

let fresh_budget ?(solutions = false) spec =
  Budget.make ?fuel:spec.fuel ?timeout:spec.timeout
    ?max_solutions:(if solutions then spec.max_solutions else None)
    ()

(* ---------------- commands ---------------- *)

let eval_cmd =
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Print the evaluation plan (including any budget-forced \
                degradation) before the solutions.")
  in
  let run load_data query algorithm k spec explain optimize =
    handle @@ fun () ->
    let graph = load_data () in
    let pattern, spans = load_query_spanned query in
    let answers =
      match algorithm with
      | Some `Reference ->
          `Set
            (Sparql.Eval.eval ~budget:(fresh_budget ~solutions:true spec)
               pattern graph)
      | Some `Naive ->
          let forest = Wdpt.Pattern_forest.of_algebra pattern in
          `Set
            (Wdpt.Semantics.solutions
               ~budget:(fresh_budget ~solutions:true spec)
               forest graph)
      | Some `Pebble | None -> (
          let force = Option.map (fun k -> Wd_core.Engine.Pebble k) k in
          (* Store-independent semantic analysis before planning: the
             pruning rewrites (unsatisfiable OPT arms, dead UNION
             branches, duplicate triples) are sound — the residual has
             exactly the original's solutions — so the planner only ever
             sees the residual. *)
          let pruned = Analysis.Prune.run ~spans pattern in
          if explain then begin
            Fmt.pr "satisfiability: %a@." Analysis.Satisfiability.pp
              (Analysis.Satisfiability.decide_quietly
                 ~fuel:Analysis.Lints.satisfiability_fuel pattern);
            Fmt.pr "canonical: %s@."
              (Analysis.Canonical.of_pattern pattern).Analysis.Canonical.hash;
            List.iter
              (fun d -> Fmt.pr "%a@." Analysis.Diagnostic.pp d)
              pruned.Analysis.Prune.rewrites
          end;
          match pruned.Analysis.Prune.outcome with
          | Analysis.Prune.Empty ->
              (* proven unsatisfiable: the answer set is empty on every
                 graph — nothing to plan or evaluate *)
              if explain then
                Fmt.pr "plan: skipped — the pattern is unsatisfiable@.";
              `Set Sparql.Mapping.Set.empty
          | Analysis.Prune.Pattern residual ->
              let plan =
                Wd_core.Engine.plan ~budget:(fresh_budget spec) ?force
                  ~optimize residual
              in
              if explain then begin
                (* The static bounds are polynomial; the exact dw they
                   print is the one the plan measured. *)
                if Sparql.Algebra.is_core residual then begin
                  let est =
                    Analysis.Width_est.estimate ~try_exact:false
                      plan.Wd_core.Engine.forest
                  in
                  let dw_exact =
                    match plan.Wd_core.Engine.width_source with
                    | Wd_core.Engine.Exact ->
                        Some plan.Wd_core.Engine.domination_width
                    | _ -> None
                  in
                  Fmt.pr "static width: %a@." Analysis.Width_est.pp
                    { est with Analysis.Width_est.dw_exact }
                end;
                Fmt.pr "%a@." Wd_core.Engine.pp_plan plan
              end;
              let rows =
                Wd_core.Engine.answer_rows
                  ~budget:(fresh_budget ~solutions:true spec) plan graph
              in
              if explain then begin
                Fmt.pr "%a@." Wd_core.Plan_cache.pp_stats
                  (Wd_core.Plan_cache.stats plan.Wd_core.Engine.cache);
                Fmt.pr "%a@." Wd_core.Explain.pp_trees
                  (Wd_core.Explain.trees plan graph)
              end;
              `Rows rows)
    in
    match answers with
    | `Set sols ->
        Fmt.pr "%d solution(s)@." (Sparql.Mapping.Set.cardinal sols);
        Sparql.Mapping.Set.iter
          (fun mu -> Fmt.pr "%a@." Sparql.Mapping.pp mu)
          sols
    | `Rows rows ->
        (* the engine's answers stay id rows up to the bytes *)
        Fmt.pr "%d solution(s)@." (Wd_core.Row_writer.cardinal rows);
        Wd_core.Row_writer.output stdout rows
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a query over a data file.")
    Term.(
      const run $ graph_term $ query_arg $ algorithm_arg $ pebbles_arg
      $ budget_term $ explain_arg $ optimize_arg)

let check_cmd =
  let run load_data query mapping algorithm k spec =
    handle @@ fun () ->
    let graph = load_data () in
    let pattern = load_query query in
    let mu = parse_mapping mapping in
    let result =
      match algorithm with
      | Some `Reference ->
          Sparql.Eval.check ~budget:(fresh_budget spec) pattern graph mu
      | Some `Naive ->
          let forest = Wdpt.Pattern_forest.of_algebra pattern in
          Wdpt.Semantics.check ~budget:(fresh_budget spec) forest graph mu
      | Some `Pebble | None ->
          let force = Option.map (fun k -> Wd_core.Engine.Pebble k) k in
          let plan =
            Wd_core.Engine.plan ~budget:(fresh_budget spec) ?force pattern
          in
          Wd_core.Engine.check ~budget:(fresh_budget spec) plan graph mu
    in
    Fmt.pr "µ %s ⟦P⟧G@." (if result then "∈" else "∉");
    exit (if result then 0 else 1)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Decide membership of a mapping (wdEVAL).")
    Term.(
      const run $ graph_term $ query_arg $ mapping_arg $ algorithm_arg
      $ pebbles_arg $ budget_term)

let width_cmd =
  let run query spec =
    handle @@ fun () ->
    let pattern = load_query query in
    Fmt.pr "%a@." Wd_core.Classify.pp
      (Wd_core.Classify.classify ~budget:(fresh_budget spec) pattern)
  in
  Cmd.v
    (Cmd.info "width" ~doc:"Width measures and predicted complexity regime.")
    Term.(const run $ query_arg $ budget_term)

let validate_cmd =
  let run query _spec =
    handle @@ fun () ->
    let pattern = load_query query in
    match Sparql.Well_designed.check pattern with
    | Ok () ->
        Fmt.pr "well-designed@.";
        exit 0
    | Error v ->
        Fmt.pr "NOT well-designed: %a@." Sparql.Well_designed.pp_violation v;
        exit 1
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Check well-designedness.")
    Term.(const run $ query_arg $ budget_term)

let analyze_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Machine-readable output: one JSON object with the verdict, \
                width estimates and diagnostics (stable schema, see \
                docs/ANALYSIS.md).")
  in
  let run query load_data json spec =
    handle @@ fun () ->
    let graph = load_data () in
    let source, src =
      if Sys.file_exists query then (query, read_file query)
      else ("query", query)
    in
    let report =
      match
        Analysis.Analyzer.of_source ?graph ~budget:(fresh_budget spec)
          ~source src
      with
      | Ok r -> r
      | Error e -> E.fail e
    in
    if json then
      print_endline (Analysis.Json.to_string (Analysis.Analyzer.to_json report))
    else Fmt.pr "%a@." Analysis.Analyzer.pp report;
    exit (if Analysis.Analyzer.has_findings report then 1 else 0)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static analysis: designedness verdict (well / weakly-well / \
             ill, with witness spans), lint findings, and static width \
             estimates. Exit 0 when clean, 1 when there are findings.")
    Term.(const run $ query_arg $ graph_opt_term $ json_arg $ budget_term)

let clique_cmd =
  let n_arg =
    Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"Graph size.")
  in
  let k_arg =
    Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc:"Clique size.")
  in
  let prob_arg =
    Arg.(value & opt float 0.4 & info [ "p" ] ~docv:"P" ~doc:"Edge probability.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
  in
  let run n k prob seed _spec =
    handle @@ fun () ->
    let h = Hardness.Clique.random_graph ~seed ~n ~edge_prob:prob in
    Fmt.pr "G(%d, %.2f) with %d edges, k = %d@." n prob
      (Graphtheory.Ugraph.m h) k;
    match Hardness.Reduction.decide ~k ~h with
    | Ok answer ->
        Fmt.pr "wdEVAL reduction: %s@."
          (if answer then "clique found" else "no clique");
        Fmt.pr "brute force:      %s@."
          (if Hardness.Clique.has_clique h k then "clique found" else "no clique")
    | Error e -> E.fail (E.Invalid_input e)
  in
  Cmd.v
    (Cmd.info "clique" ~doc:"Solve k-CLIQUE through the Theorem 2 reduction.")
    Term.(const run $ n_arg $ k_arg $ prob_arg $ seed_arg $ budget_term)

let explain_cmd =
  let run load_data query spec optimize =
    handle @@ fun () ->
    let graph = load_data () in
    let pattern = load_query query in
    Fmt.pr "%a@." Wd_core.Explain.pp
      (Wd_core.Explain.explain ~budget:(fresh_budget spec) ~optimize pattern
         graph)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the evaluation plan: cost-based join orders with \
             estimated vs actual cardinalities and each node's \
             maximality test (exact first, pebble past its cap).")
    Term.(const run $ graph_term $ query_arg $ budget_term $ optimize_arg)

let stats_cmd =
  let run load_data _spec =
    handle @@ fun () ->
    let graph = load_data () in
    Fmt.pr "%a@." Rdf.Stats.pp (Rdf.Stats.of_graph graph)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print graph statistics (per-predicate cardinalities).")
    Term.(const run $ graph_term $ budget_term)

let containment_cmd =
  let q2_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "r"; "rhs" ] ~docv:"QUERY" ~doc:"Right-hand query (file or inline).")
  in
  let attempts_arg =
    Arg.(value & opt int 200 & info [ "attempts" ] ~docv:"N" ~doc:"Refutation attempts.")
  in
  let run query rhs attempts _spec =
    handle @@ fun () ->
    let p1 = load_query query and p2 = load_query rhs in
    match Wd_core.Containment.refute ~attempts p1 p2 with
    | Some ce ->
        Fmt.pr "NOT contained: counterexample found@.";
        Fmt.pr "graph:@.%s@." (Rdf.Turtle.to_string ce.Wd_core.Containment.graph);
        Fmt.pr "mapping: %a@." Sparql.Mapping.pp ce.Wd_core.Containment.mapping;
        exit 1
    | None ->
        Fmt.pr
          "no counterexample found in %d attempts (evidence of containment, \
           not a proof — wd-pattern containment is Πᵖ₂-complete)@."
          attempts
  in
  Cmd.v
    (Cmd.info "containment"
       ~doc:"Search for a counterexample to ⟦Q⟧ ⊆ ⟦RHS⟧ (randomised refutation).")
    Term.(const run $ query_arg $ q2_arg $ attempts_arg $ budget_term)

let optimize_cmd =
  let run query _spec =
    handle @@ fun () ->
    let pattern = load_query query in
    let forest, report = Wdpt.Optimize.pattern pattern in
    Fmt.pr "removed %d redundant triple(s), %d duplicate tree(s)@."
      report.Wdpt.Optimize.triples_removed report.Wdpt.Optimize.trees_removed;
    Fmt.pr "optimised pattern:@.%s@."
      (Sparql.Printer.to_string (Wdpt.Pattern_forest.to_algebra forest))
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Apply the provably-safe simplifications (ancestor triple dedup, \
             duplicate UNION branches) and print the result.")
    Term.(const run $ query_arg $ budget_term)

let fuzz_cmd =
  let runs_arg =
    Arg.(value & opt int 200 & info [ "runs" ] ~docv:"N" ~doc:"Number of random instances.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Base random seed.")
  in
  let run runs seed spec =
    handle @@ fun () ->
    (* Differential testing: algebra reference vs naive wdPF vs pebble(dw)
       vs the shared-prefix enumerator, on random instances. *)
    let failures = ref 0 in
    for i = 1 to runs do
      let s = seed + i in
      let pattern =
        Workload.Query_families.random_wd_pattern ~seed:s ~triples:6 ~vars:6
          ~preds:2 ~depth:3 ~union:2
      in
      let graph =
        Rdf.Generator.random_graph ~seed:(s * 7 + 1) ~n:6
          ~predicates:[ "q0"; "q1" ] ~m:18
      in
      let forest = Wdpt.Pattern_forest.of_algebra pattern in
      let budget () = fresh_budget spec in
      let dw = Wd_core.Domination_width.of_forest ~budget:(budget ()) forest in
      let reference = Sparql.Eval.eval ~budget:(budget ()) pattern graph in
      let naive = Wdpt.Semantics.solutions ~budget:(budget ()) forest graph in
      let pebble =
        Wd_core.Pebble_eval.solutions ~budget:(budget ()) ~k:dw forest graph
      in
      let shared = Wd_core.Enumerate.solutions ~budget:(budget ()) forest graph in
      if
        not
          (Sparql.Mapping.Set.equal reference naive
          && Sparql.Mapping.Set.equal reference pebble
          && Sparql.Mapping.Set.equal reference shared)
      then begin
        incr failures;
        Fmt.epr "MISMATCH at seed %d:@.query: %s@." s
          (Sparql.Printer.to_string pattern)
      end
    done;
    if !failures = 0 then Fmt.pr "fuzz: %d instances, all evaluators agree@." runs
    else begin
      Fmt.pr "fuzz: %d mismatches out of %d@." !failures runs;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential testing: all four evaluators on random instances.")
    Term.(const run $ runs_arg $ seed_arg $ budget_term)

let compile_cmd =
  let input_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DATA"
          ~doc:"Input to compile: a Turtle file (duplicate triples are \
                dropped), or an existing store — plain or chained — \
                whose live triples are rewritten canonically: \
                the output is the file compact would leave, byte for \
                byte.")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output store path.")
  in
  let force_arg =
    Arg.(
      value & flag
      & info [ "f"; "force" ] ~doc:"Overwrite an existing output file.")
  in
  let run input out force _spec =
    handle @@ fun () ->
    if Sys.file_exists out && not force then
      E.fail
        (E.Invalid_input
           (Fmt.str "%s exists (pass --force to overwrite)" out));
    (* Both inputs go through the canonical builder straight from ids:
       no term-level graph is built. *)
    let enc =
      if Storage.looks_like_store input then
        Storage.canonical (Storage.load input)
      else
        match Rdf.Turtle.parse_ground_err ~source:input (read_file input) with
        | Ok triples -> Encoded.Encoded_graph.of_triples ~identity:0 triples
        | Error e -> E.fail e
    in
    Storage.save enc out;
    let i = Storage.info out in
    Fmt.pr
      "compiled %s: %d triple(s), %d term(s), %d predicate(s), %d bytes, \
       stamp %#x@."
      out i.Storage.triples i.Storage.terms i.Storage.predicates
      i.Storage.file_bytes i.Storage.stamp
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a data file into an on-disk store: dictionary, sorted \
             index permutations and planner statistics in one mappable \
             file, so later runs (and the server) cold-start without \
             parsing or re-encoding.")
    Term.(const run $ input_arg $ out_arg $ force_arg $ budget_term)

let store_info_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"STORE" ~doc:"Compiled store file.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Also hash the payload against the header's content stamp \
                (reads the whole file; exit 5 on mismatch).")
  in
  let run file verify =
    handle @@ fun () ->
    let i = Storage.info ~verify file in
    let kind =
      match i.Storage.chain with
      | Storage.Single -> "store"
      | Storage.Chained _ -> "store (chained)"
    in
    Fmt.pr "%s %s@." kind file;
    Fmt.pr "  format version   %d@." i.Storage.version;
    Fmt.pr "  live triples     %d@." i.Storage.triples;
    if i.Storage.base_triples <> i.Storage.triples then
      Fmt.pr "  base triples     %d@." i.Storage.base_triples;
    Fmt.pr "  terms            %d@." i.Storage.terms;
    Fmt.pr "  predicates       %d@." i.Storage.predicates;
    Fmt.pr "  file bytes       %d@." i.Storage.file_bytes;
    if i.Storage.total_bytes <> i.Storage.file_bytes then
      Fmt.pr "  total bytes      %d@." i.Storage.total_bytes;
    Fmt.pr "  content stamp    %#x@." i.Storage.stamp;
    if i.Storage.chain_stamp <> i.Storage.stamp then
      Fmt.pr "  chain stamp      %#x@." i.Storage.chain_stamp;
    Fmt.pr "  identity (epoch) %d@." i.Storage.identity;
    Fmt.pr "  sections@.";
    List.iter
      (fun s ->
        Fmt.pr "    %-14s %d bytes@." s.Storage.sec_name s.Storage.sec_bytes)
      i.Storage.sections;
    (match i.Storage.chain with
    | Storage.Single -> ()
    | Storage.Chained segs ->
        Fmt.pr "  chain            base + %d delta segment(s)@."
          (List.length segs);
        List.iter
          (fun s ->
            Fmt.pr "    %s  +%d -%d triple(s), %d new term(s), stamp %#x, \
                    chain %#x, %d bytes@."
              (Filename.basename s.Storage.seg_file)
              s.Storage.seg_adds s.Storage.seg_dels s.Storage.seg_new_terms
              s.Storage.seg_stamp s.Storage.seg_chain_stamp
              s.Storage.seg_bytes)
          segs);
    if verify then Fmt.pr "  checksum         OK@."
  in
  Cmd.v
    (Cmd.info "store-info"
       ~doc:"Print a compiled store's header summary — counts, per-section \
             byte sizes, content stamp, stable identity, and the delta \
             segment chain — without loading its data.")
    Term.(const run $ file_arg $ verify_arg)

let append_cmd =
  let store_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"STORE" ~doc:"Compiled store to append to.")
  in
  let add_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "add" ] ~docv:"FILE" ~doc:"Turtle file of triples to add.")
  in
  let remove_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "remove" ] ~docv:"FILE"
          ~doc:"Turtle file of triples to delete.")
  in
  let run store add remove =
    handle @@ fun () ->
    if add = None && remove = None then
      E.fail (E.Invalid_input "append: pass --add and/or --remove");
    let triples_of = function
      | None -> []
      | Some file -> Rdf.Graph.triples (load_graph file)
    in
    let adds = triples_of add and dels = triples_of remove in
    match Storage.append ~adds ~dels store with
    | None -> Fmt.pr "append %s: no net change, nothing written@." store
    | Some r ->
        Fmt.pr
          "appended %s: +%d -%d triple(s), %d new term(s), chain stamp %#x@."
          r.Storage.app_file r.Storage.app_adds r.Storage.app_dels
          r.Storage.app_new_terms r.Storage.app_chain_stamp
  in
  Cmd.v
    (Cmd.info "append"
       ~doc:"Write the next delta segment for a compiled store — O(delta), \
             never rewriting the base. The delta is normalized against the \
             live contents first (duplicate adds and deletes of absent \
             triples drop out); an empty net delta writes nothing. Loads \
             and the server's SIGHUP reload pick segments up \
             automatically.")
    Term.(const run $ store_arg $ add_arg $ remove_arg)

let compact_cmd =
  let store_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"STORE" ~doc:"Compiled store (base of the chain).")
  in
  let run store =
    handle @@ fun () ->
    let r = Storage.compact store in
    Fmt.pr "compacted %s: folded %d segment(s), stamp %#x@." store
      r.Storage.folded r.Storage.compact_stamp
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Fold a store's delta segments into a fresh monolithic base \
             (atomically) and delete them. The result is bit-identical to \
             compiling the same triples from scratch — same content \
             stamp.")
    Term.(const run $ store_arg)

let serve_cmd =
  let port_arg =
    Arg.(
      value & opt int 8080
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker threads handling connections.")
  in
  let global_fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "global-fuel" ] ~docv:"TOKENS"
          ~doc:"Capacity of the global admission token bucket; per-request \
                fuel is withdrawn from it and unspent fuel returned. \
                Unset: no global budget watermark.")
  in
  let refill_rate_arg =
    Arg.(
      value & opt float 0.
      & info [ "refill-rate" ] ~docv:"TOKENS/S"
          ~doc:"Refill rate of the global token bucket.")
  in
  let max_inflight_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"In-flight request watermark (default: 2x workers).")
  in
  let queue_cap_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Accept-queue watermark (default: 8x workers).")
  in
  let max_request_bytes_arg =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-request-bytes" ] ~docv:"BYTES"
          ~doc:"Largest accepted request (413 beyond).")
  in
  let io_timeout_arg =
    Arg.(
      value & opt float 10.
      & info [ "io-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-connection read/write deadline.")
  in
  let fault_spec_arg =
    Arg.(
      value & opt string ""
      & info [ "fault-spec" ] ~docv:"SPEC"
          ~doc:"Deterministic fault injection, e.g. \
                'slow:9,disconnect:11,malformed:5,starve:7,poison:13': \
                request i suffers the kind whose period divides i.")
  in
  let plan_cache_arg =
    Arg.(
      value & opt int 64
      & info [ "plan-cache" ] ~docv:"N"
          ~doc:"Distinct query plans kept compiled across connections.")
  in
  let run load_data port host workers spec global_fuel refill_rate
      max_inflight queue_cap max_request_bytes io_timeout fault_spec
      plan_cache =
    handle @@ fun () ->
    let graph = load_data () in
    let faults =
      match Wd_server.Faults.parse fault_spec with
      | Ok f -> f
      | Error msg -> E.fail (E.Invalid_input ("bad --fault-spec: " ^ msg))
    in
    let request_fuel = Option.value ~default:10_000_000 spec.fuel in
    (* a bucket that can never cover one grant would shed every request
       forever — refuse the footgun at startup *)
    (match global_fuel with
    | Some g when g < request_fuel ->
        E.fail
          (E.Invalid_input
             (Printf.sprintf
                "--global-fuel %d is below the per-request fuel %d: every \
                 request would be shed"
                g request_fuel))
    | _ -> ());
    let admission =
      {
        Wd_server.Admission.request_fuel;
        request_timeout = Option.value ~default:10. spec.timeout;
        max_solutions = spec.max_solutions;
        global_fuel;
        refill_rate;
        max_inflight = Option.value ~default:(2 * workers) max_inflight;
      }
    in
    Wd_server.Server.run
      {
        Wd_server.Server.graph;
        (* SIGHUP re-runs the loader: a store file picks up delta
           segments appended since startup, without dropping
           connections *)
        reload = Some load_data;
        host;
        port;
        workers;
        queue_capacity = Option.value ~default:(8 * workers) queue_cap;
        admission;
        max_request_bytes;
        io_timeout;
        faults;
        plan_capacity = plan_cache;
      }
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-running SPARQL endpoint: GET/POST /sparql, /analyze, \
             /health, /stats. Admission control carves per-request budgets \
             from a refillable global token bucket; overload is shed with \
             503 + Retry-After; SIGINT/SIGTERM drains gracefully.")
    Term.(
      const run $ graph_term $ port_arg $ host_arg $ workers_arg $ budget_term
      $ global_fuel_arg $ refill_rate_arg $ max_inflight_arg $ queue_cap_arg
      $ max_request_bytes_arg $ io_timeout_arg $ fault_spec_arg
      $ plan_cache_arg)

let () =
  let doc = "well-designed SPARQL with width-based evaluation (PODS'18)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "wdsparql" ~version:"1.0.0" ~doc)
          [
            eval_cmd; check_cmd; width_cmd; validate_cmd; analyze_cmd;
            explain_cmd;
            stats_cmd; containment_cmd; optimize_cmd; clique_cmd; fuzz_cmd;
            compile_cmd; store_info_cmd; append_cmd; compact_cmd;
            serve_cmd;
          ]))
