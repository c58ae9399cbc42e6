(* Domain pool on stdlib primitives. Jobs are [int -> unit] closures
   receiving the worker slot that runs them; the caller of a batch
   participates as slot 0 and steals queued jobs while it waits, so a
   pool of size n really uses n domains and size 1 never touches the
   queue at all. *)

type t = {
  size : int;
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : (int -> unit) Queue.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

let max_domains = 128

let rec worker_loop t slot =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.nonempty t.lock
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.lock (* stopping: drain done *)
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.lock;
    job slot;
    worker_loop t slot
  end

let create ~domains () =
  let size = max 1 (min domains max_domains) in
  let t =
    {
      size;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      domains = [];
    }
  in
  t.domains <-
    List.init (size - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let size t = t.size

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ~domains f =
  let t = create ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* --- global pool registry (one cached pool per size) ----------------- *)

let registry_lock = Mutex.create ()
let registry : (int * (t * bool ref)) list ref = ref []

let release pool () =
  Mutex.lock registry_lock;
  List.iter
    (fun (_, (p, in_use)) -> if p == pool then in_use := false)
    !registry;
  Mutex.unlock registry_lock

let borrow ~domains f =
  let domains = max 1 (min domains max_domains) in
  if domains = 1 then f (create ~domains ())
  else begin
    Mutex.lock registry_lock;
    let reuse =
      match List.assoc_opt domains !registry with
      | Some (pool, in_use) when not !in_use ->
          in_use := true;
          Some pool
      | _ -> None
    in
    Mutex.unlock registry_lock;
    match reuse with
    | Some pool -> Fun.protect ~finally:(release pool) (fun () -> f pool)
    | None ->
        let pool = create ~domains () in
        Mutex.lock registry_lock;
        let cached = not (List.mem_assoc domains !registry) in
        if cached then registry := (domains, (pool, ref true)) :: !registry;
        Mutex.unlock registry_lock;
        if cached then Fun.protect ~finally:(release pool) (fun () -> f pool)
        else Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
  end

(* --- batches --------------------------------------------------------- *)

let submit t jobs =
  Mutex.lock t.lock;
  List.iter (fun job -> Queue.push job t.queue) jobs;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock

let try_pop t =
  Mutex.lock t.lock;
  let job = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
  Mutex.unlock t.lock;
  job

let fold_sequential ~init ~f ~merge acc items =
  let state = lazy (init 0) in
  List.fold_left (fun acc x -> merge acc (f (Lazy.force state) x)) acc items

let default_chunk n size =
  (* several chunks per worker for load balance, but no shorter than 1
     and no longer than 64 so cancellation stays responsive *)
  max 1 (min 64 (n / (4 * size) + 1))

let fold_ordered t ?chunk ~init ~f ~merge acc items =
  let n = List.length items in
  if t.size <= 1 || n < 2 then fold_sequential ~init ~f ~merge acc items
  else begin
    let items = Array.of_list items in
    let chunk_sz =
      match chunk with Some c -> max 1 c | None -> default_chunk n t.size
    in
    let nchunks = (n + chunk_sz - 1) / chunk_sz in
    let results = Array.make n None in
    let batch_lock = Mutex.create () in
    let advanced = Condition.create () in
    let chunk_done = Array.make nchunks false in
    let first_error : (exn * Printexc.raw_backtrace) option ref = ref None in
    let cancelled = Atomic.make false in
    (* worker-local state, lazily built at most once per slot; each slot
       is only ever touched by the domain that owns it *)
    let states = Array.make t.size None in
    let state_for slot =
      match states.(slot) with
      | Some s -> s
      | None ->
          let s = init slot in
          states.(slot) <- Some s;
          s
    in
    let run_chunk c slot =
      (try
         let lo = c * chunk_sz and hi = min n ((c + 1) * chunk_sz) - 1 in
         for i = lo to hi do
           if not (Atomic.get cancelled) then
             results.(i) <- Some (f (state_for slot) items.(i))
         done
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Atomic.set cancelled true;
         Mutex.lock batch_lock;
         if !first_error = None then first_error := Some (e, bt);
         Mutex.unlock batch_lock);
      Mutex.lock batch_lock;
      chunk_done.(c) <- true;
      Condition.broadcast advanced;
      Mutex.unlock batch_lock
    in
    submit t (List.init nchunks (fun c slot -> run_chunk c slot));
    (* The caller merges chunk results in input order as they complete,
       stealing queued jobs while the next-needed chunk is still in
       flight. *)
    let help_until_done c =
      let rec go () =
        let done_ =
          Mutex.lock batch_lock;
          let d = chunk_done.(c) in
          Mutex.unlock batch_lock;
          d
        in
        if not done_ then
          match try_pop t with
          | Some job ->
              job 0;
              go ()
          | None ->
              (* nothing left to steal: every chunk is running somewhere;
                 wait for completions *)
              Mutex.lock batch_lock;
              while not chunk_done.(c) do
                Condition.wait advanced batch_lock
              done;
              Mutex.unlock batch_lock
      in
      go ()
    in
    let acc = ref acc in
    let merge_error : (exn * Printexc.raw_backtrace) option ref = ref None in
    for c = 0 to nchunks - 1 do
      help_until_done c;
      if !merge_error = None then begin
        try
          let lo = c * chunk_sz and hi = min n ((c + 1) * chunk_sz) - 1 in
          for i = lo to hi do
            match results.(i) with
            | Some r -> acc := merge !acc r
            | None -> () (* skipped by cancellation; an error is pending *)
          done
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          Atomic.set cancelled true;
          merge_error := Some (e, bt)
      end
    done;
    (* the merge runs in input order on the caller, so its exception
       corresponds to the earliest sequential point — prefer it over a
       worker's, which may belong to a later item *)
    (match (!merge_error, !first_error) with
    | Some (e, bt), _ | None, Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None, None -> ());
    !acc
  end
