(* Child processes and the HTTP client. Everything the harness asks of the
   shipped binary goes through here: every child is tracked from spawn to
   reap, and an exit hook kills and reaps any still running, so no
   process outlives the harness. *)

(* Monotonic, nanosecond resolution: the per-layer spans are microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let live = Hashtbl.create 8
let live_lock = Mutex.create ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Wait for [pid]; its exit code, or -1 if a signal ended it. *)
let rec reap pid =
  match Unix.waitpid [] pid with
  | _, status ->
      with_lock live_lock (fun () -> Hashtbl.remove live pid);
      (match status with Unix.WEXITED c -> c | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

let () =
  at_exit (fun () ->
      let pids = Hashtbl.fold (fun pid () acc -> pid :: acc) live [] in
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (reap pid) with Unix.Unix_error _ -> ())
        pids)

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

let spawn ~stdout ~stderr prog args =
  let pid =
    Unix.create_process prog
      (Array.of_list (prog :: args))
      (Lazy.force devnull) stdout stderr
  in
  with_lock live_lock (fun () -> Hashtbl.replace live pid ());
  pid

let read_chunk fd buf chunk =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes buf chunk 0 n;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let read_all fd =
  let b = Buffer.create 4096 and chunk = Bytes.create 65536 in
  while read_chunk fd b chunk do () done;
  Buffer.contents b

(* Peak resident set of a live process so far, in KiB, from /proc; 0 once
   it has exited. (The rusage of a child is no use here: Linux carries
   the parent's resident set at fork into the child's peak.) *)
let vm_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
            | _ -> go ()
            | exception End_of_file -> 0
          in
          go ())

(* CPU ticks since boot (first line of /proc/stat): the part the
   hypervisor gave to other guests (steal), and the total. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic -> (
      let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "cpu" :: fields ->
          let ticks = List.filter_map int_of_string_opt fields in
          ((match List.nth_opt ticks 7 with Some s -> s | None -> 0), List.fold_left ( + ) 0 ticks)
      | _ -> (0, 0))

type result = {
  code : int;  (* exit code, -1 if killed by a signal *)
  out : string;  (* standard output *)
  wall : float;  (* seconds, spawn to reap *)
  rss_kb : int;  (* peak resident set, when watched *)
}

(* Run to completion, capturing standard output. With [watch_rss], the
   child's peak resident set is sampled every millisecond until its
   output closes. *)
let run ?(watch_rss = false) ~stderr prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = spawn ~stdout:wr ~stderr prog args in
  Unix.close wr;
  let out = Buffer.create 4096 and chunk = Bytes.create 65536 and rss = ref 0 in
  let sample () = if watch_rss then rss := max !rss (vm_hwm_kb pid) in
  let rec go () =
    sample ();
    match Unix.select [ rd ] [] [] (if watch_rss then 0.001 else -1.) with
    | [], _, _ -> go ()
    | _ -> if read_chunk rd out chunk then go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  Fun.protect ~finally:(fun () -> Unix.close rd) go;
  let code = reap pid in
  { code; out = Buffer.contents out; wall = now () -. t0; rss_kb = !rss }

(* ------------------------------------------------------------------ *)
(* HTTP                                                                 *)
(* ------------------------------------------------------------------ *)

let io_timeout = 30.

(* One request over a fresh loopback connection (the server answers one
   request per connection and closes it). [None] on a connection error
   or a response that is not HTTP. *)
let http ~port raw =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO io_timeout;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO io_timeout;
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let rec send off =
          if off < String.length raw then
            send (off + Unix.write_substring fd raw off (String.length raw - off))
        in
        send 0;
        read_all fd
      with
      | exception Unix.Unix_error _ -> None
      | response -> (
          (* "HTTP/1.1 200 OK\r\n" headers "\r\n\r\n" body *)
          let n = String.length response in
          let rec body_at k =
            if k + 4 > n then None
            else if String.sub response k 4 = "\r\n\r\n" then Some (k + 4)
            else body_at (k + 1)
          in
          match (String.index_opt response ' ', body_at 0) with
          | Some i, Some k when i + 4 <= n -> (
              match int_of_string_opt (String.sub response (i + 1) 3) with
              | Some status -> Some (status, String.sub response k (n - k))
              | None -> None)
          | _ -> None))

let post_sparql ~port query =
  http ~port
    (Printf.sprintf "POST /sparql HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
       (String.length query) query)

let get ~port path = http ~port (Printf.sprintf "GET %s HTTP/1.1\r\n\r\n" path)

(* ------------------------------------------------------------------ *)
(* The server                                                           *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; port : int; out : Unix.file_descr }

exception Server_error of string

(* Read one line of the server's standard output, giving up at
   [deadline]. *)
let read_line fd ~deadline =
  let b = Buffer.create 128 and c = Bytes.create 1 in
  let rec go () =
    let left = deadline -. now () in
    if left <= 0. then raise (Server_error "no listening line in time");
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ -> (
        match Unix.read fd c 0 1 with
        | 0 -> raise (Server_error "exited before listening")
        | _ when Bytes.get c 0 = '\n' -> Buffer.contents b
        | _ ->
            Buffer.add_bytes b c;
            go ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let port_of_line line =
  (* "wdsparql: listening on http://HOST:PORT (workers ..." *)
  match String.split_on_char ' ' line with
  | _ :: "listening" :: "on" :: url :: _ -> (
      match String.rindex_opt url ':' with
      | Some i -> int_of_string_opt (String.sub url (i + 1) (String.length url - i - 1))
      | None -> None)
  | _ -> None

let startup_timeout = 30.

(* Spawn and wait for the first 200 from /health. *)
let start_server ~stderr prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = spawn ~stdout:wr ~stderr prog args in
  Unix.close wr;
  let deadline = now () +. startup_timeout in
  let line = read_line rd ~deadline in
  match port_of_line line with
  | None -> raise (Server_error ("unexpected first line: " ^ line))
  | Some port ->
      let rec ready () =
        match get ~port "/health" with
        | Some (200, _) -> ()
        | _ when now () > deadline -> raise (Server_error "never healthy")
        | _ ->
            Unix.sleepf 0.001;
            ready ()
      in
      ready ();
      { pid; port; out = rd }

(* SIGTERM drains the server; its final stats go to standard output.
   Returns the exit code. *)
let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (read_all s.out);
  Unix.close s.out;
  reap s.pid

let reload s = Unix.kill s.pid Sys.sighup
