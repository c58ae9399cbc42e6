(* The untraced run: four workloads against the shipped binary, driven as
   a black box from this one process with at most two threads and two
   connections. Every answer is checked against the reference evaluator;
   every metric here is end to end. *)

module P = Proc
module R = Report
module J = Analysis.Json

type workload = Serve_hot | Serve_cold | Frontier | Write_mix

let all = [ Serve_hot; Serve_cold; Frontier; Write_mix ]

let name = function
  | Serve_hot -> "serve-hot"
  | Serve_cold -> "serve-cold"
  | Frontier -> "frontier"
  | Write_mix -> "write-mix"

let of_name s = List.find_opt (fun w -> name w = s) all

(* ------------------------------------------------------------------ *)
(* Context: the binary, the run's directory, and the failure tally      *)
(* ------------------------------------------------------------------ *)

type ctx = {
  bin : string;
  dir : string;
  seed : int;
  scale : Gen.scale;
  seconds : float;
  log : Unix.file_descr;  (* children's standard error *)
  lock : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* the first few, for diagnosis *)
}

let rec remove path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let make_ctx ~bin ~workdir ~seed ~scale ~seconds w =
  let dir = Filename.concat workdir (name w) in
  remove dir;
  mkdir_p dir;
  {
    bin; dir; seed; scale; seconds;
    log =
      Unix.openfile (Filename.concat dir "stderr.log")
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644;
    lock = Mutex.create ();
    attempted = 0; failed = 0; errors = [];
  }

let record_error ctx what =
  ctx.failed <- ctx.failed + 1;
  if List.length ctx.errors < 10 && not (List.mem what ctx.errors) then
    ctx.errors <- ctx.errors @ [ what ]

(* One operation asked of the program, and whether it succeeded. *)
let note ctx ok what =
  P.with_lock ctx.lock (fun () ->
      ctx.attempted <- ctx.attempted + 1;
      if not ok then record_error ctx (what ()))

let path ctx file = Filename.concat ctx.dir file

let cli ctx args =
  let r = P.run ~stderr:ctx.log ctx.bin args in
  note ctx (r.P.code = 0) (fun () ->
      Printf.sprintf "wdsparql %s exited %d" (List.hd args) r.P.code);
  r

(* "... stamp 0x..." at the end of compile's report. *)
let stamp_of out =
  let s = String.trim out in
  match String.rindex_opt s ' ' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)
(* ------------------------------------------------------------------ *)

type batch_file = {
  batch : Gen.batch;
  add : string;  (* its files *)
  del : string;
  bytes : int;  (* N-Triples bytes of both *)
}

type inputs = {
  data : string;
  store : string;
  triples : int;
  graph : Rdf.Graph.t Lazy.t;  (* term-level, for the reference evaluator *)
  pool : Gen.pool;  (* empty for the frontier *)
  frontier : (Gen.frontier_query * string) list;  (* query, its file *)
  batches : batch_file list;
  digest : string;  (* of every generated input *)
}

let write_batches ctx batches =
  List.mapi
    (fun i (b : Gen.batch) ->
      let add = path ctx (Printf.sprintf "batch-%02d-add.nt" i)
      and del = path ctx (Printf.sprintf "batch-%02d-del.nt" i) in
      let a = Gen.ntriples b.adds and d = Gen.ntriples b.dels in
      Gen.write_file add a;
      Gen.write_file del d;
      { batch = b; add; del; bytes = String.length a + String.length d })
    batches

let empty_pool = { Gen.texts = [||]; stream = [||] }

let prepare ctx w =
  let data = path ctx "data.nt" and store = path ctx "store.wds" in
  let triples, pool, frontier, batches =
    match w with
    | Frontier ->
        let f = Gen.frontier ~seed:ctx.seed ctx.scale in
        let queries =
          List.map
            (fun (q : Gen.frontier_query) ->
              let file = path ctx ("q-" ^ q.fname ^ ".rq") in
              Gen.write_file file q.text;
              (q, file))
            f.queries
        in
        (f.fdata, empty_pool, queries, Gen.frontier_batches ~seed:ctx.seed ctx.scale f)
    | Serve_hot | Serve_cold | Write_mix ->
        let u = Gen.university ~seed:ctx.seed ctx.scale in
        let pool =
          if w = Serve_cold then Gen.cold_pool ~seed:ctx.seed ctx.scale u
          else Gen.hot_pool ~seed:ctx.seed ctx.scale u
        in
        (Gen.university_triples u, pool, [], Gen.university_batches ~seed:ctx.seed ctx.scale u)
  in
  let nt = Gen.ntriples triples in
  Gen.write_file data nt;
  let batches = write_batches ctx batches in
  let digest =
    let b = Buffer.create (String.length nt + 65536) in
    Buffer.add_string b nt;
    Array.iter (fun t -> Buffer.add_string b t; Buffer.add_char b '\n') pool.texts;
    Array.iter (fun i -> Buffer.add_string b (string_of_int i); Buffer.add_char b ',') pool.stream;
    List.iter (fun ((q : Gen.frontier_query), _) -> Buffer.add_string b q.text) frontier;
    List.iter
      (fun bf ->
        Buffer.add_string b (Gen.read_file bf.add);
        Buffer.add_string b (Gen.read_file bf.del);
        Buffer.add_string b bf.batch.probe)
      batches;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  {
    data; store; triples = List.length triples;
    graph = lazy (Gen.graph_of triples);
    pool; frontier; batches; digest;
  }

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

let setup_reps = 3

let serve_args store = [ "serve"; "--store"; store; "--port"; "0" ]

(* Compile the data and, for a server workload, start the server on the
   store and wait for its first 200: [setup_reps] times, keeping the last
   server. Every compile of the same data must produce the same store. *)
let setup ctx inp ~serve =
  let times = ref [] and stamps = ref [] and server = ref None in
  for rep = 1 to setup_reps do
    let t0 = P.now () in
    let r = cli ctx [ "compile"; inp.data; "-o"; inp.store; "--force" ] in
    if r.P.code <> 0 then failwith ("compile failed; see " ^ path ctx "stderr.log");
    stamps := stamp_of r.P.out :: !stamps;
    if serve then
      server := Some (P.start_server ~stderr:ctx.log ctx.bin (serve_args inp.store));
    times := (P.now () -. t0) :: !times;
    if rep < setup_reps then Option.iter (fun s -> ignore (P.stop_server s)) !server
  done;
  let stamps = List.sort_uniq compare !stamps in
  note ctx (List.length stamps = 1) (fun () -> "compile is not deterministic");
  (List.rev !times, List.hd stamps, !server)

(* ------------------------------------------------------------------ *)
(* Answers                                                              *)
(* ------------------------------------------------------------------ *)

(* The reference answer of every pool text, computed before timing. A
   server's response to a text is deterministic, so the first 200 body per
   text is kept, later ones must match it byte for byte, and the kept
   bodies are checked against the reference after the window — no JSON
   parsing inside it. *)
type answers = {
  expected : (Sparql.Mapping.Set.t, string) result array;
  first : string option array;
  count : int array;
}

let answers inp pool =
  let g = Lazy.force inp.graph in
  {
    expected = Array.map (Check.reference g) pool.Gen.texts;
    first = Array.make (Array.length pool.Gen.texts) None;
    count = Array.make (Array.length pool.Gen.texts) 0;
  }

let observe ctx a idx resp =
  let ok, what =
    match resp with
    | Some (200, body) ->
        P.with_lock ctx.lock (fun () ->
            a.count.(idx) <- a.count.(idx) + 1;
            match a.first.(idx) with
            | None ->
                a.first.(idx) <- Some body;
                (true, "")
            | Some b -> (String.equal b body, "response differs from an earlier one"))
    | Some (status, body) -> (false, Printf.sprintf "HTTP %d: %s" status body)
    | None -> (false, "connection failed")
  in
  note ctx ok (fun () -> what)

let verify ctx a pool =
  Array.iteri
    (fun i first ->
      match (first, a.expected.(i)) with
      | None, _ -> ()
      | Some _, Error e ->
          P.with_lock ctx.lock (fun () -> record_error ctx e)
      | Some body, Ok want ->
          let ok =
            match Check.of_json body with
            | Some got -> Sparql.Mapping.Set.equal got want
            | None -> false
          in
          if not ok then
            P.with_lock ctx.lock (fun () ->
                for _ = 1 to a.count.(i) do
                  record_error ctx ("wrong answer to " ^ pool.Gen.texts.(i))
                done))
    a.first

(* ------------------------------------------------------------------ *)
(* Load                                                                 *)
(* ------------------------------------------------------------------ *)

let clients = 2

(* Closed loop: each client sends its next request when the previous one
   is answered, until [until]. [next] is the position in the stream,
   kept across calls. Latencies in ms. *)
let closed_loop ctx ~port ~next pool a ~until =
  let lat = Array.init clients (fun _ -> Stats.samples ()) in
  let client k () =
    while P.now () < until do
      let i = Atomic.fetch_and_add next 1 in
      let idx = pool.Gen.stream.(i mod Array.length pool.Gen.stream) in
      let t0 = P.now () in
      let resp = P.post_sparql ~port pool.Gen.texts.(idx) in
      Stats.add lat.(k) ((P.now () -. t0) *. 1000.);
      observe ctx a idx resp
    done
  in
  List.iter Thread.join (List.init clients (fun k -> Thread.create (client k) ()));
  Array.to_list lat

(* Open loop at [rate] requests/s from one thread, each timed from when
   it was due, until [stop ()] holds at a due time. Returns latencies and
   how late each request was sent, both in ms. *)
let open_loop ctx ~port pool a ~rate ~start ~stop =
  let lat = Stats.samples () and late = Stats.samples () in
  let rec go k =
    let due = start +. (float k /. rate) in
    if not (stop due) then begin
      let wait = due -. P.now () in
      if wait > 0. then Unix.sleepf wait;
      Stats.add late ((P.now () -. due) *. 1000.);
      let idx = pool.Gen.stream.(k mod Array.length pool.Gen.stream) in
      let resp = P.post_sparql ~port pool.Gen.texts.(idx) in
      Stats.add lat ((P.now () -. due) *. 1000.);
      observe ctx a idx resp;
      go (k + 1)
    end
  in
  go 0;
  (lat, late)

(* ------------------------------------------------------------------ *)
(* The write stream                                                     *)
(* ------------------------------------------------------------------ *)

(* Batches go to [store]; after each, the reader is made to see it
   ([reload]) and [probe] is polled until the batch shows. The timings
   accumulate here, batch by batch. *)
type writes = {
  store : string;
  reload : unit -> unit;
  probe : string -> bool option;
  mutable append_ms : float list;
  mutable lag_ms : float list;  (* append start to the first probe that sees it *)
  mutable compact_ms : float list;
  mutable written : int;  (* bytes of segments and compacted bases *)
}

let writes ~store ~reload ~probe =
  { store; reload; probe; append_ms = []; lag_ms = []; compact_ms = []; written = 0 }

let visibility_timeout = 10.

let file_size f = (Unix.stat f).Unix.st_size

(* "appended FILE: +25 -25 triple(s), ..." *)
let segment_of out =
  let prefix = "appended " in
  let p = String.length prefix in
  let rec colon i =
    if i + 3 > String.length out then None
    else if String.sub out i 3 = ": +" then Some (String.sub out p (i - p))
    else colon (i + 1)
  in
  if String.length out > p && String.sub out 0 p = prefix then colon p else None

(* Append batch [b] and wait until the reader sees it; compact after every
   [Gen.compact_every] appends. *)
let write_batch ctx w b bf =
  let t0 = P.now () in
  let r = cli ctx [ "append"; w.store; "--add"; bf.add; "--remove"; bf.del ] in
  w.append_ms <- ((P.now () -. t0) *. 1000.) :: w.append_ms;
  (match segment_of r.P.out with
  | Some seg -> w.written <- w.written + file_size seg
  | None -> note ctx false (fun () -> "append wrote no segment: " ^ r.P.out));
  w.reload ();
  let rec poll () =
    match w.probe bf.batch.Gen.probe with
    | Some true -> ()
    | Some false when P.now () -. t0 < visibility_timeout -> poll ()
    | _ -> note ctx false (fun () -> "batch never became visible: " ^ bf.batch.Gen.probe)
  in
  poll ();
  w.lag_ms <- ((P.now () -. t0) *. 1000.) :: w.lag_ms;
  if (b + 1) mod Gen.compact_every ctx.scale = 0 then begin
    let t0 = P.now () in
    ignore (cli ctx [ "compact"; w.store ]);
    w.compact_ms <- ((P.now () -. t0) *. 1000.) :: w.compact_ms;
    w.written <- w.written + file_size w.store;
    w.reload ()
  end

(* The batches come in groups of [Gen.compact_every], each closed by a
   compaction. *)
let groups ctx inp = List.length inp.batches / Gen.compact_every ctx.scale

let write_group ctx w inp k =
  let c = Gen.compact_every ctx.scale in
  List.iteri (fun b bf -> if b / c = k then write_batch ctx w b bf) inp.batches

(* Store bytes per live triple, from store-info. *)
let bytes_per_triple ctx store =
  let r = cli ctx [ "store-info"; store ] in
  let field key =
    List.find_map
      (fun line ->
        let line = String.trim line in
        let k = String.length key in
        if String.length line > k && String.sub line 0 k = key then
          int_of_string_opt (String.trim (String.sub line k (String.length line - k)))
        else None)
      (String.split_on_char '\n' r.P.out)
  in
  match (field "live triples", field "total bytes", field "file bytes") with
  | Some n, Some bytes, _ | Some n, None, Some bytes when n > 0 ->
      float bytes /. float n
  | _ -> failwith "store-info: no live triples or bytes"

(* The server's reload count from /stats; [None] if a reload failed. *)
let reloads port =
  match P.get ~port "/stats" with
  | Some (200, body) -> (
      match J.of_string body with
      | Ok doc -> (
          let server = J.member "server" doc in
          let count key = Option.bind (Option.bind server (J.member key)) J.to_int in
          match (count "reloads", count "reload_failures") with
          | Some n, Some 0 -> Some n
          | _ -> None)
      | Error _ -> None)
  | _ -> None

(* SIGHUP, then wait until the server reports the reload done. *)
let reload_server ctx (s : P.server) () =
  let before = reloads s.port in
  P.reload s;
  let deadline = P.now () +. visibility_timeout in
  let rec wait () =
    match (before, reloads s.port) with
    | Some b, Some n when n > b -> ()
    | Some _, Some _ when P.now () < deadline ->
        Unix.sleepf 0.0005;
        wait ()
    | _ -> note ctx false (fun () -> "server reload failed or timed out")
  in
  wait ()

(* The probe is a ground triple pattern: one solution once visible. *)
let http_probe ctx (s : P.server) text =
  let resp = P.post_sparql ~port:s.port text in
  let seen =
    match resp with
    | Some (200, body) -> (
        match Check.of_json body with
        | Some set -> (
            match Sparql.Mapping.Set.cardinal set with 0 -> Some false | 1 -> Some true | _ -> None)
        | None -> None)
    | _ -> None
  in
  note ctx (seen <> None) (fun () -> "probe failed: " ^ text);
  seen

let cli_probe ctx store text =
  let r = cli ctx [ "eval"; "--store"; store; "-q"; text ] in
  match Check.of_cli r.P.out with
  | Some set when Sparql.Mapping.Set.cardinal set <= 1 ->
      Some (Sparql.Mapping.Set.cardinal set = 1)
  | _ ->
      note ctx false (fun () -> "probe output unreadable: " ^ text);
      None

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

(* [lat] is sorted. Write times are medians over the whole run: compaction
   times have a long upper tail on a busy host, which a higher percentile
   of a few samples jumps in and out of. *)
let metrics ctx inp ~setup ~lat ~throughput ~rss_kb w =
  let batch_bytes = List.fold_left (fun acc bf -> acc + bf.bytes) 0 inp.batches in
  [
    R.timing "setup_s" "s" setup;
    R.scalar "throughput_qps" "1/s" throughput;
    R.percentile "latency_p50_ms" "ms" lat 0.5;
    R.percentile "latency_p90_ms" "ms" lat 0.9;
    R.percentile "latency_p99_ms" "ms" lat 0.99;
    R.scalar "peak_rss_mb" "MB" (float rss_kb /. 1024.);
    R.timing "append_p50_ms" "ms" w.append_ms;
    R.timing "visibility_lag_p50_ms" "ms" w.lag_ms;
    R.timing "compact_p50_ms" "ms" w.compact_ms;
    R.scalar "write_amp" "ratio" (float w.written /. float batch_bytes);
    R.scalar "store_bytes_per_triple" "B" (bytes_per_triple ctx w.store);
  ]

let completed lat = List.fold_left (fun acc s -> acc + s.Stats.len) 0 lat

(* The read-only workloads write to a copy of their store through the
   CLI alone (append, an `eval` probe, compact), so what they read, and
   the server's state, stay those of the compiled data. *)
let side_writes ctx (inp : inputs) =
  let store = path ctx "writes.wds" in
  Gen.write_file store (Gen.read_file inp.store);
  writes ~store ~reload:ignore ~probe:(cli_probe ctx store)

(* serve-hot and serve-cold: the closed loop in one slice per write
   group, each slice followed by its group on the idle server, so that
   reads and writes each sample the whole run. *)
let serve ctx inp =
  let a = answers inp inp.pool in
  let setup_times, stamp, server = setup ctx inp ~serve:true in
  let s = Option.get server in
  (* warm: every hot text once; a slice of the cold pool *)
  Array.iteri
    (fun i text -> if i < 200 then observe ctx a i (P.post_sparql ~port:s.port text))
    inp.pool.Gen.texts;
  let w = side_writes ctx inp in
  let groups = groups ctx inp in
  let next = Atomic.make 0 and lat = ref [] and window = ref 0. in
  for k = 0 to groups - 1 do
    let start = P.now () in
    let slice_end = start +. (ctx.seconds /. float groups) in
    lat := closed_loop ctx ~port:s.port ~next inp.pool a ~until:slice_end @ !lat;
    window := !window +. (P.now () -. start);
    write_group ctx w inp k
  done;
  let rss_kb = P.vm_hwm_kb s.pid in
  note ctx (P.stop_server s = 0) (fun () -> "server did not exit cleanly");
  verify ctx a inp.pool;
  ( !window,
    metrics ctx inp ~setup:setup_times ~lat:(Stats.sorted_of_samples !lat)
      ~throughput:(float (completed !lat) /. !window) ~rss_kb w,
    [ ("store_stamp", J.String stamp) ] )

let read_rate = 200.

(* write-mix: reads in an open loop from one thread while a second runs
   the write stream, spread over the window. *)
let write_mix ctx inp =
  let a = answers inp inp.pool in
  let setup_times, stamp, server = setup ctx inp ~serve:true in
  let s = Option.get server in
  Array.iteri (fun i text -> observe ctx a i (P.post_sparql ~port:s.port text)) inp.pool.Gen.texts;
  let w = writes ~store:inp.store ~reload:(reload_server ctx s) ~probe:(http_probe ctx s) in
  let period = ctx.seconds /. float (List.length inp.batches) in
  let start = P.now () in
  let writer_done = Atomic.make false in
  let writer =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set writer_done true)
          (fun () ->
            List.iteri
              (fun b bf ->
                let wait = start +. (float b *. period) -. P.now () in
                if wait > 0. then Unix.sleepf wait;
                write_batch ctx w b bf)
              inp.batches))
      ()
  in
  let lat, late =
    open_loop ctx ~port:s.port inp.pool a ~rate:read_rate ~start ~stop:(fun due ->
        due >= start +. ctx.seconds && Atomic.get writer_done)
  in
  Thread.join writer;
  let window = P.now () -. start in
  let rss_kb = P.vm_hwm_kb s.pid in
  note ctx (P.stop_server s = 0) (fun () -> "server did not exit cleanly");
  verify ctx a inp.pool;
  let late = Stats.sorted_of_samples [ late ] in
  ( window,
    metrics ctx inp ~setup:setup_times ~lat:(Stats.sorted_of_samples [ lat ])
      ~throughput:(float lat.Stats.len /. window) ~rss_kb w,
    [ ("store_stamp", J.String stamp);
      ("generator_late_p50_ms", J.Float (Stats.rank late 0.5));
      ("generator_late_p90_ms", J.Float (Stats.rank late 0.9));
      ("generator_late_p99_ms", J.Float (Stats.rank late 0.99));
      ("generator_late_max_ms", J.Float (Stats.rank late 1.)) ] )

(* frontier: the query list through `wdsparql eval`, one process at a
   time, in whole rounds until the window is spent; a group of writes to
   a copy of the store follows each query that ends a slice of the
   window. The latency percentiles are taken over the list's per-query
   medians: a query runs once a round, and the slowest one's few runs
   would make any tail percentile of single runs a maximum. *)
let frontier ctx inp =
  let g = Lazy.force inp.graph in
  let expected = List.map (fun (q, _) -> Check.reference g q.Gen.text) inp.frontier in
  let setup_times, stamp, _ = setup ctx inp ~serve:false in
  let w = side_writes ctx inp in
  let groups = groups ctx inp in
  let slice = ctx.seconds /. float groups and next_group = ref 0 in
  (* run the write groups due once [t] seconds have been spent reading *)
  let writes_until t =
    while !next_group < groups && t >= float (!next_group + 1) *. slice do
      write_group ctx w inp !next_group;
      incr next_group
    done
  in
  let rss = ref 0 and rounds = ref 0 and window = ref 0. in
  let per_query = Hashtbl.create 16 in
  while !rounds = 0 || !window < ctx.seconds do
    List.iter2
      (fun (q, file) want ->
        let t0 = P.now () in
        let r =
          P.run ~watch_rss:true ~stderr:ctx.log ctx.bin [ "eval"; "--store"; inp.store; "-q"; file ]
        in
        Hashtbl.add per_query q.Gen.fname (r.P.wall *. 1000.);
        rss := max !rss r.P.rss_kb;
        let ok =
          r.P.code = 0
          &&
          match (want, Check.of_cli r.P.out) with
          | Ok want, Some got -> Sparql.Mapping.Set.equal want got
          | _ -> false
        in
        note ctx ok (fun () ->
            match want with
            | Error e -> q.Gen.fname ^ ": " ^ e
            | Ok _ -> Printf.sprintf "%s: exit %d or wrong answer" q.Gen.fname r.P.code);
        window := !window +. (P.now () -. t0);
        writes_until !window)
      inp.frontier expected;
    incr rounds
  done;
  writes_until Float.infinity;
  let medians =
    List.map
      (fun (q, _) -> (q.Gen.fname, Stats.median (Hashtbl.find_all per_query q.Gen.fname)))
      inp.frontier
  in
  ( !window,
    metrics ctx inp ~setup:setup_times
      ~lat:(Stats.sorted_of_list (List.map snd medians))
      ~throughput:(float (Hashtbl.length per_query) /. !window)
      ~rss_kb:!rss w,
    [ ("store_stamp", J.String stamp); ("rounds", J.Int !rounds);
      ("query_p50_ms", J.Obj (List.map (fun (n, m) -> (n, J.Float m)) medians)) ] )

let run ctx w =
  let inp = prepare ctx w in
  let steal0, total0 = P.cpu_ticks () in
  let window, metrics, info =
    match w with
    | Serve_hot | Serve_cold -> serve ctx inp
    | Write_mix -> write_mix ctx inp
    | Frontier -> frontier ctx inp
  in
  let steal1, total1 = P.cpu_ticks () in
  Unix.close ctx.log;
  {
    R.workload = name w;
    seed = ctx.seed;
    seconds = window;
    attempted = ctx.attempted;
    failed = ctx.failed;
    errors = ctx.errors;
    metrics;
    info =
      [ ("inputs_digest", J.String inp.digest); ("triples", J.Int inp.triples);
        (* the share of CPU time other guests took: a disturbed run shows here *)
        ( "host_steal_frac",
          J.Float (float (steal1 - steal0) /. float (max 1 (total1 - total0))) ) ]
      @ info;
  }
