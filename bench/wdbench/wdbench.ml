(* wdbench: the end-to-end benchmark of wdsparql.

     wdbench run     [options]   the four workloads against the shipped
                                 binary; end-to-end metrics
     wdbench trace   [options]   the same inputs replayed in-process, call
                                 by call; per-layer metrics
     wdbench compare BASE.json NEW.json
                                 one row per (workload, end-to-end metric);
                                 exit 1 on a regression beyond its bound

   Options: --seed N, --workload NAME (repeatable; default all four),
   --seconds S, --repeat N, --trace 0|1 (1 makes run a trace), --smoke,
   --out FILE, --workdir DIR, --wdsparql EXE, --benchmark FILE.

   Run from the repository root after `dune build`; bench/wdbench/run.sh
   does both. *)

module R = Report

type opts = {
  mutable seed : int;
  mutable workloads : Run.workload list;
  mutable seconds : float option;
  mutable repeat : int;
  mutable trace : bool;
  mutable smoke : bool;
  mutable out : string option;
  mutable workdir : string;
  mutable bin : string;
  mutable benchmark : string;
}

let usage () =
  prerr_endline
    "usage: wdbench (run|trace) [--seed N] [--workload NAME]... [--seconds S] \
     [--repeat N] [--trace 0|1] [--smoke] [--out FILE] [--workdir DIR] \
     [--wdsparql EXE] [--benchmark FILE]\n\
    \       wdbench compare BASE.json NEW.json [--benchmark FILE]";
  exit 2

let parse args =
  let o =
    {
      seed = 1; workloads = []; seconds = None; repeat = 1; trace = false;
      smoke = false; out = None; workdir = "_wdbench";
      bin = "_build/default/bin/wdsparql.exe"; benchmark = "BENCHMARK.json";
    }
  in
  let num conv s = match conv s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest -> o.seed <- num int_of_string_opt v; go rest
    | "--workload" :: v :: rest ->
        (match Run.of_name v with
        | Some w -> o.workloads <- o.workloads @ [ w ]
        | None -> prerr_endline ("unknown workload " ^ v); usage ());
        go rest
    | "--seconds" :: v :: rest -> o.seconds <- Some (num float_of_string_opt v); go rest
    | "--repeat" :: v :: rest -> o.repeat <- num int_of_string_opt v; go rest
    | "--trace" :: v :: rest -> o.trace <- num int_of_string_opt v = 1; go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | "--out" :: v :: rest -> o.out <- Some v; go rest
    | "--workdir" :: v :: rest -> o.workdir <- v; go rest
    | "--wdsparql" :: v :: rest -> o.bin <- v; go rest
    | "--benchmark" :: v :: rest -> o.benchmark <- v; go rest
    | arg :: _ -> prerr_endline ("unknown argument " ^ arg); usage ()
  in
  go args;
  if o.workloads = [] then o.workloads <- Run.all;
  o

let scale o = if o.smoke then Gen.Smoke else Gen.Full
let default_seconds = function Gen.Full -> 20. | Gen.Smoke -> 0.5

let one o ~trace ~seed w =
  let scale = scale o in
  let ctx =
    Run.make_ctx ~bin:o.bin ~workdir:o.workdir ~seed ~scale
      ~seconds:(Option.value ~default:(default_seconds scale) o.seconds)
      w
  in
  let r = if trace then Trace.run ctx w else Run.run ctx w in
  Fmt.pr "%a@." R.pp_run r;
  r

(* ------------------------------------------------------------------ *)
(* Determinism, checked by the smoke                                    *)
(* ------------------------------------------------------------------ *)

let info_string key (r : R.run) =
  match List.assoc_opt key r.R.info with Some (Analysis.Json.String s) -> s | _ -> ""

(* The same seed regenerates byte-identical inputs; the next seed changes
   them, and the store compiled from them. *)
let inputs_repeat o runs =
  List.concat_map
    (fun (r : R.run) ->
      let w = Option.get (Run.of_name r.R.workload) in
      let regen seed =
        let ctx =
          Run.make_ctx ~bin:o.bin ~workdir:(Filename.concat o.workdir "determinism")
            ~seed ~scale:(scale o) ~seconds:0. w
        in
        let inp = Run.prepare ctx w in
        let compiled = Run.cli ctx [ "compile"; inp.Run.data; "-o"; inp.Run.store ] in
        Unix.close ctx.Run.log;
        (inp.Run.digest, Run.stamp_of compiled.Proc.out)
      in
      let same_digest, same_stamp = regen r.R.seed in
      let other_digest, other_stamp = regen (r.R.seed + 1) in
      List.filter_map
        (fun (ok, what) -> if ok then None else Some (r.R.workload ^ ": " ^ what))
        [ (same_digest = info_string "inputs_digest" r, "same seed, different inputs");
          (same_stamp = info_string "store_stamp" r, "same seed, different store");
          (other_digest <> same_digest, "next seed, same inputs");
          (other_stamp <> same_stamp, "next seed, same store") ])
    runs

(* Counts, ticks and hit ratios of a traced run repeat exactly. *)
let exact_metric name =
  List.exists
    (fun suffix -> Filename.check_suffix name suffix)
    [ "_ticks"; "hit_ratio"; "write_amp"; "bytes_written"; "_candidates";
      "_compiled"; "chain_len_max"; "_per_req" ]

let traces_repeat (a : R.run) (b : R.run) =
  List.filter_map
    (fun (m : R.metric) ->
      if not (exact_metric m.R.name) then None
      else
        match List.find_opt (fun (x : R.metric) -> x.R.name = m.R.name) b.R.metrics with
        | Some x when x.R.value = m.R.value -> None
        | _ -> Some (Printf.sprintf "%s: %s differs between traced runs" a.R.workload m.R.name))
    a.R.metrics

(* ------------------------------------------------------------------ *)

let measure cmd o =
  let spec = R.load_spec o.benchmark in
  let trace = cmd = "trace" || o.trace in
  let runs =
    List.concat_map
      (fun w -> List.init o.repeat (fun _ -> one o ~trace ~seed:o.seed w))
      o.workloads
  in
  (* the smoke adds the determinism checks, on two traced runs of the
     workload that crosses every layer *)
  let extra =
    if trace || not o.smoke then []
    else
      let a = one o ~trace:true ~seed:o.seed Run.Write_mix in
      let b = one o ~trace:true ~seed:o.seed Run.Write_mix in
      inputs_repeat o runs @ R.validate spec ~trace:true a @ traces_repeat a b
  in
  let path =
    Option.value o.out
      ~default:(Filename.concat o.workdir ((if trace then "trace" else "run") ^ ".json"))
  in
  let schema =
    R.write_results spec ~trace ~path ~command:(if trace then "trace" else "run")
      ~scale:(scale o) runs
  in
  List.iter (Fmt.epr "wdbench: %s@.") (schema @ extra);
  Fmt.pr "wrote %s@." path;
  if schema <> [] then exit 2;
  (match runs with
  | [ r ] -> print_endline (R.result_line spec ~trace r)
  | _ -> ());
  if extra <> [] || List.exists (fun (r : R.run) -> r.R.failed > 0) runs then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | ("run" | "trace") as cmd :: rest -> measure cmd (parse rest)
  | "compare" :: base :: next :: rest ->
      let o = parse rest in
      exit
        (R.compare (R.load_spec o.benchmark) (R.load_results base) (R.load_results next))
  | _ -> usage ()
