(* Metrics, the results file, the BENCHMARK.json spec, and comparison of
   two results files. *)

module J = Analysis.Json

type metric = {
  name : string;
  unit : string;
  value : float;
  dist : Stats.dist option;  (* the samples [value] summarises *)
  beyond : int option;  (* samples above a percentile [value] *)
}

let scalar name unit value = { name; unit; value; dist = None; beyond = None }

(* The median of a list of timings, with its spread. *)
let timing name unit values =
  let d = Stats.dist (Stats.sorted_of_list values) in
  { name; unit; value = d.median; dist = Some d; beyond = None }

(* A latency percentile over sorted samples, with the count beyond it. *)
let percentile name unit sorted q =
  let value = Stats.rank sorted q in
  { name; unit; value; dist = Some (Stats.dist sorted);
    beyond = Some (Stats.beyond sorted value) }

type run = {
  workload : string;
  seed : int;
  seconds : float;  (* length of the measured window *)
  attempted : int;
  failed : int;
  errors : string list;
  metrics : metric list;
  info : (string * J.t) list;
}

let error_rate r = float r.failed /. float (max 1 r.attempted)

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                       *)
(* ------------------------------------------------------------------ *)

type spec_metric = {
  sname : string;
  sunit : string;
  lower_better : bool;
  bound : float;  (* 0. for per-layer metrics, which have none *)
}

type spec = {
  workloads : string list;
  end_to_end : spec_metric list;
  per_layer : spec_metric list;
}

let number = function J.Int i -> Some (float i) | J.Float f -> Some f | _ -> None

let load_spec path =
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  let doc = match J.of_string (Gen.read_file path) with Ok d -> d | Error e -> fail e in
  let list key =
    match Option.bind (J.member key doc) J.to_list with
    | Some l -> l
    | None -> fail ("no list " ^ key)
  in
  let str key o =
    match Option.bind (J.member key o) J.to_str with
    | Some s -> s
    | None -> fail ("entry without " ^ key)
  in
  let metric o =
    {
      sname = str "name" o;
      sunit = str "unit" o;
      lower_better = str "better" o = "lower";
      bound = Option.value ~default:0. (Option.bind (J.member "bound" o) number);
    }
  in
  {
    workloads = List.map (str "name") (list "workloads");
    end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
  }

let spec_metrics spec ~trace = if trace then spec.per_layer else spec.end_to_end

(* Every metric the spec names is present with the spec's unit. *)
let validate spec ~trace r =
  List.filter_map
    (fun m ->
      match List.find_opt (fun x -> x.name = m.sname) r.metrics with
      | None -> Some (Printf.sprintf "%s: no metric %s" r.workload m.sname)
      | Some x when x.unit <> m.sunit ->
          Some
            (Printf.sprintf "%s: %s has unit %s, spec says %s" r.workload m.sname
               x.unit m.sunit)
      | Some x when not (Float.is_finite x.value) ->
          Some (Printf.sprintf "%s: %s is not a number" r.workload m.sname)
      | Some _ -> None)
    (spec_metrics spec ~trace)

(* The last line of a single-workload run: the spec's metrics only. *)
let result_line spec ~trace r =
  J.to_string
    (J.Obj
       [ ("correct", J.Bool (r.failed = 0));
         ("attempted", J.Int (max 1 r.attempted));
         ("failed", J.Int r.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun m ->
                  let x = List.find (fun x -> x.name = m.sname) r.metrics in
                  (m.sname, J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit) ]))
                (spec_metrics spec ~trace)) ) ])

(* ------------------------------------------------------------------ *)
(* The results file                                                     *)
(* ------------------------------------------------------------------ *)

let schema = "wdbench-results/1"

let metric_json m =
  J.Obj
    ([ ("unit", J.String m.unit); ("value", J.Float m.value) ]
    @ (match m.dist with
      | Some d ->
          [ ("median", J.Float d.median); ("p25", J.Float d.p25);
            ("p75", J.Float d.p75); ("n", J.Int d.n) ]
      | None -> [])
    @ match m.beyond with Some b -> [ ("beyond", J.Int b) ] | None -> [])

let run_json r =
  J.Obj
    [ ("workload", J.String r.workload); ("seed", J.Int r.seed);
      ("run_seconds", J.Float r.seconds); ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed); ("error_rate", J.Float (error_rate r));
      ("errors", J.List (List.map (fun e -> J.String e) r.errors));
      ("metrics", J.Obj (List.map (fun m -> (m.name, metric_json m)) r.metrics));
      ("info", J.Obj r.info) ]

let metric_of_json name o =
  let f key = Option.bind (J.member key o) number in
  let dist =
    match (f "median", f "p25", f "p75", Option.bind (J.member "n" o) J.to_int) with
    | Some median, Some p25, Some p75, Some n -> Some { Stats.n; median; p25; p75 }
    | _ -> None
  in
  {
    name;
    unit = Option.value ~default:"" (Option.bind (J.member "unit" o) J.to_str);
    value = Option.value ~default:Float.nan (f "value");
    dist;
    beyond = Option.bind (J.member "beyond" o) J.to_int;
  }

let run_of_json o =
  let get key conv default = Option.value ~default (Option.bind (J.member key o) conv) in
  {
    workload = get "workload" J.to_str "";
    seed = get "seed" J.to_int 0;
    seconds = get "run_seconds" number 0.;
    attempted = get "attempted" J.to_int 0;
    failed = get "failed" J.to_int 0;
    errors = [];
    metrics =
      (match J.member "metrics" o with
      | Some (J.Obj fields) -> List.map (fun (k, v) -> metric_of_json k v) fields
      | _ -> []);
    info = [];
  }

(* The commit checked out in the working directory, read from .git
   without running git (which would also read configuration outside
   it); "unknown" outside a git checkout. *)
let commit () =
  let read f =
    match Gen.read_file (Filename.concat ".git" f) with
    | s -> Some (String.trim s)
    | exception Sys_error _ -> None
  in
  let packed name =
    Option.bind (read "packed-refs") (fun refs ->
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ hash; r ] when r = name -> Some hash
            | _ -> None)
          (String.split_on_char '\n' refs))
  in
  match read "HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let name = String.sub head 5 (String.length head - 5) in
      match read name with
      | Some hash -> hash
      | None -> Option.value ~default:"unknown" (packed name))
  | Some hash -> hash
  | None -> "unknown"

let results_json ~command ~scale runs =
  J.Obj
    [ ("schema", J.String schema); ("command", J.String command);
      ("scale", J.String (match scale with Gen.Full -> "full" | Gen.Smoke -> "smoke"));
      ("host_cores", J.Int (Domain.recommended_domain_count ()));
      ("commit", J.String (commit ()));
      ("seed", match runs with r :: _ -> J.Int r.seed | [] -> J.Null);
      ("runs", J.List (List.map run_json runs)) ]

let load_results path =
  match J.of_string (Gen.read_file path) with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok doc -> (
      match Option.bind (J.member "runs" doc) J.to_list with
      | Some runs -> List.map run_of_json runs
      | None -> failwith (path ^ ": no runs"))

(* Write, then read back and check against the spec: a results file that
   drifts from BENCHMARK.json is an error, not a silent mismatch. *)
let write_results spec ~trace ~path ~command ~scale runs =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string (results_json ~command ~scale runs)));
  List.concat_map (validate spec ~trace) (load_results path)

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)
(* ------------------------------------------------------------------ *)

let pp_run ppf r =
  Fmt.pf ppf "@[<v>== %s (seed %d, %.1f s): %d attempted, %d failed@," r.workload
    r.seed r.seconds r.attempted r.failed;
  List.iter
    (fun m ->
      Fmt.pf ppf "  %-28s %14.4f %-6s" m.name m.value m.unit;
      (match m.dist with
      | Some d when d.n > 1 ->
          Fmt.pf ppf "  [p25 %.4g, p75 %.4g, n %d]" d.p25 d.p75 d.n
      | _ -> ());
      Option.iter (Fmt.pf ppf " beyond %d") m.beyond;
      Fmt.pf ppf "@,")
    r.metrics;
  List.iter (Fmt.pf ppf "  error: %s@,") r.errors;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* compare BASE NEW                                                     *)
(* ------------------------------------------------------------------ *)

type verdict = Better | Worse | Same | Unresolved

let verdict_name = function
  | Better -> "better" | Worse -> "worse" | Same -> "same" | Unresolved -> "unresolved"

(* One row per (workload, end-to-end metric), over every run of each side:
   the change of medians against the bound decides, unless either side's
   spread is wider than the bound and neither side beats the other on
   every run. *)
let judge (m : spec_metric) base next =
  let q25, bmed, q75 = Stats.quartiles base and n25, nmed, n75 = Stats.quartiles next in
  let spread lo med hi = if med = 0. then 0. else (hi -. lo) /. Float.abs med in
  let rel = if bmed = 0. then nmed -. bmed else (nmed -. bmed) /. Float.abs bmed in
  let worse_by = if m.lower_better then rel else -.rel in
  let beats a b = if m.lower_better then a < b else a > b in
  let all_beat xs ys = List.for_all (fun x -> List.for_all (beats x) ys) xs in
  let separated = all_beat base next || all_beat next base in
  let verdict =
    if Float.max (spread q25 bmed q75) (spread n25 nmed n75) > m.bound && not separated
    then Unresolved
    else if worse_by > m.bound then Worse
    else if worse_by < -.m.bound then Better
    else Same
  in
  (verdict, (q25, bmed, q75), (n25, nmed, n75), rel)

let compare spec base_runs new_runs =
  let values runs w name =
    List.filter_map
      (fun r ->
        if r.workload <> w then None
        else
          Option.map (fun m -> m.value)
            (List.find_opt (fun m -> m.name = name) r.metrics))
      runs
  in
  let errors runs w =
    List.filter_map (fun r -> if r.workload = w then Some (error_rate r) else None) runs
  in
  let workloads =
    List.filter (fun w -> values base_runs w "setup_s" <> []) spec.workloads
  in
  let failed = ref false in
  Fmt.pr "%-11s %-24s %-6s %28s %28s %8s %6s  %s@." "workload" "metric" "unit"
    "base median [p25,p75] n" "new median [p25,p75] n" "change" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          match (values base_runs w m.sname, values new_runs w m.sname) with
          | [], _ | _, [] -> ()
          | b, n ->
              let v, (b25, bm, b75), (n25, nm, n75), rel = judge m b n in
              if v = Worse then failed := true;
              let cell lo med hi k = Printf.sprintf "%.4g [%.4g,%.4g] %d" med lo hi k in
              Fmt.pr "%-11s %-24s %-6s %28s %28s %+7.1f%% %6.2f  %s@." w m.sname m.sunit
                (cell b25 bm b75 (List.length b))
                (cell n25 nm n75 (List.length n))
                (100. *. rel) m.bound (verdict_name v))
        spec.end_to_end;
      let be = errors base_runs w and ne = errors new_runs w in
      if ne <> [] && be <> [] && Stats.median ne > Stats.median be then begin
        failed := true;
        Fmt.pr "%-11s %-24s error rate rose: %.4g -> %.4g@." w "error_rate"
          (Stats.median be) (Stats.median ne)
      end)
    workloads;
  if !failed then 1 else 0
