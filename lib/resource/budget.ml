(* A forked budget's workers drain one shared fuel pool in small leases
   and observe a shared cancellation flag, so exhaustion (or an explicit
   [cancel]) on any domain stops the siblings at their next sync point —
   at most [lease] ticks away. *)
type shared = {
  cancelled : bool Atomic.t;
  pool_fuel : int Atomic.t;  (* remaining unleased fuel; max_int = none *)
}

type t = {
  mutable fuel_left : int;  (* max_int = no fuel limit *)
  mutable spent : int;
  mutable solutions_left : int;  (* max_int = no cap *)
  deadline : float;  (* absolute Unix time; infinity = none *)
  mutable phase : string;
  limited : bool;
  halted : bool Atomic.t;
      (* standalone cancellation, settable from another thread (the
         server's drain path): checked at deadline-check ticks. Worker
         views share their parent's cell. *)
  mutable shared : shared option;
      (* Some while enrolled in a fork group: on worker views for their
         whole life, on the parent between [fork] and [join] *)
  mutable cap_left : int;
      (* ticks left under the running [capped] region; max_int = none *)
}

exception Exhausted of { phase : string; spent : int }

(* Raised by [tick] when the running cap is gone; never escapes
   [capped]. *)
exception Capped

let deadline_check_interval = 64
let lease = deadline_check_interval

let unlimited =
  {
    fuel_left = max_int;
    spent = 0;
    solutions_left = max_int;
    deadline = infinity;
    phase = "-";
    limited = false;
    halted = Atomic.make false;
    shared = None;
    cap_left = max_int;
  }

let make ?fuel ?timeout ?max_solutions () =
  match (fuel, timeout, max_solutions) with
  | None, None, None -> unlimited
  | _ ->
      let fuel_left =
        match fuel with
        | None -> max_int
        | Some f ->
            if f <= 0 then invalid_arg "Budget.make: fuel must be positive";
            f
      in
      let deadline =
        match timeout with
        | None -> infinity
        | Some s ->
            if s <= 0. then invalid_arg "Budget.make: timeout must be positive";
            Unix.gettimeofday () +. s
      in
      let solutions_left =
        match max_solutions with
        | None -> max_int
        | Some n ->
            if n <= 0 then
              invalid_arg "Budget.make: max_solutions must be positive";
            n
      in
      {
        fuel_left;
        spent = 0;
        solutions_left;
        deadline;
        phase = "-";
        limited = true;
        halted = Atomic.make false;
        shared = None;
        cap_left = max_int;
      }

let exhaust b =
  (* a worker view going down takes its siblings with it: fuel and
     deadline are shared fates, and a cancelled group must stop as one *)
  (match b.shared with Some s -> Atomic.set s.cancelled true | None -> ());
  raise (Exhausted { phase = b.phase; spent = b.spent })

(* Take a fresh lease from the shared pool; empty pool = the group's
   collective fuel is gone. [paid] says whether the triggering tick was
   already covered by the old lease: an unpaid tick consumes the new
   lease's first unit. *)
let refill b s ~paid =
  if Atomic.get s.cancelled then exhaust b;
  let rec go () =
    let cur = Atomic.get s.pool_fuel in
    if cur = max_int then b.fuel_left <- max_int
    else begin
      let take = min lease cur in
      if take <= 0 then exhaust b
      else if Atomic.compare_and_set s.pool_fuel cur (cur - take) then
        b.fuel_left <- (if paid then take else take - 1)
      else go ()
    end
  in
  go ()

let tick b =
  if b.limited then begin
    b.spent <- b.spent + 1;
    if b.fuel_left <> max_int then begin
      b.fuel_left <- b.fuel_left - 1;
      if b.fuel_left <= 0 then
        match b.shared with
        | None -> exhaust b
        | Some s ->
            (* negative: this tick predates any lease (fresh fork) —
               lease one and pay for it. Zero: the lease's last unit
               went to this tick — lease eagerly so the group exhausts
               on exactly the tick that would trip the unforked budget
               (fuel f = f-1 successful ticks, like [make ~fuel]). *)
            if b.fuel_left < 0 then refill b s ~paid:false;
            if b.fuel_left <= 0 then refill b s ~paid:true
    end;
    if b.spent land (deadline_check_interval - 1) = 0 then begin
      (match b.shared with
      | Some s when Atomic.get s.cancelled -> exhaust b
      | _ -> ());
      if Atomic.get b.halted then exhaust b;
      if b.deadline < infinity && Unix.gettimeofday () > b.deadline then
        exhaust b
    end;
    (* after the outer limits, so those still fire on a capping tick *)
    if b.cap_left <> max_int then begin
      b.cap_left <- b.cap_left - 1;
      if b.cap_left < 0 then raise_notrace Capped
    end
  end

let fork b n =
  if n <= 0 then invalid_arg "Budget.fork: worker count must be positive";
  if not b.limited then Array.init n (fun _ -> unlimited)
  else begin
    let pool = b.fuel_left in
    let s =
      { cancelled = Atomic.make false; pool_fuel = Atomic.make pool }
    in
    (* the parent joins the group too: its remaining fuel becomes the
       pool, and until [join] it leases from that pool like any worker,
       so solution ticks on the parent during the merge share one
       account with the workers *)
    b.shared <- Some s;
    if pool <> max_int then b.fuel_left <- 0;
    Array.init n (fun _ ->
        {
          fuel_left = (if pool = max_int then max_int else 0);
          spent = 0;
          solutions_left = max_int;
          (* the solution cap stays with the parent: answers are only
             counted on the calling domain, in merge order *)
          deadline = b.deadline;
          phase = b.phase;
          limited = true;
          halted = b.halted;
          shared = Some s;
          cap_left = max_int;
        })
  end

let join b workers =
  if b.limited then
    match b.shared with
    | None -> ()
    | Some s ->
        b.shared <- None;
        b.spent <-
          Array.fold_left (fun acc w -> acc + w.spent) b.spent workers;
        let pool = Atomic.get s.pool_fuel in
        if pool <> max_int then begin
          (* reclaim unleased pool fuel plus every member's unspent
             lease (the parent's own lease included) *)
          let reclaim acc m =
            if m.fuel_left = max_int then acc else acc + max 0 m.fuel_left
          in
          b.fuel_left <- reclaim (Array.fold_left reclaim pool workers) b
        end

let cancel b =
  if b.limited then begin
    Atomic.set b.halted true;
    match b.shared with
    | Some s -> Atomic.set s.cancelled true
    | None -> ()
  end

(* Refill/withdraw treat a budget as a fuel account (the server's global
   admission pool): no ticks are recorded, fuel just moves in and out.
   On an enrolled budget both operate on the shared pool via CAS — a
   member's current lease is never touched, so a worker mid-lease cannot
   observe a refill until its next lease boundary. *)

let default_cap = max_int - 1
(* clamping at [max_int] would turn a limited pool into the "no fuel
   limit" sentinel *)

let replenish ?(cap = default_cap) b n =
  if b.limited && n > 0 then begin
    let cap = min cap default_cap in
    match b.shared with
    | Some s ->
        let rec add () =
          let cur = Atomic.get s.pool_fuel in
          if cur < max_int then begin
            let next = if cur >= cap - n then cap else cur + n in
            if next > cur && not (Atomic.compare_and_set s.pool_fuel cur next)
            then add ()
          end
        in
        add ()
    | None ->
        if b.fuel_left < max_int then
          b.fuel_left <-
            (if b.fuel_left >= cap - n then max b.fuel_left cap
             else b.fuel_left + n)
  end

let try_withdraw b n =
  if n < 0 then invalid_arg "Budget.try_withdraw: negative amount";
  if (not b.limited) || n = 0 then true
  else
    match b.shared with
    | Some s ->
        let rec sub () =
          let cur = Atomic.get s.pool_fuel in
          if cur = max_int then true
          else if cur < n then false
          else Atomic.compare_and_set s.pool_fuel cur (cur - n) || sub ()
        in
        sub ()
    | None ->
        if b.fuel_left = max_int then true
        else if b.fuel_left < n then false
        else begin
          b.fuel_left <- b.fuel_left - n;
          true
        end

let fuel_left b =
  if (not b.limited) || b.fuel_left = max_int then None else Some b.fuel_left

let solution b =
  if b.limited then begin
    (* a solution is also work — and keeps the deadline honest when an
       enumerator produces answers faster than it ticks *)
    tick b;
    if b.solutions_left <> max_int then begin
      b.solutions_left <- b.solutions_left - 1;
      if b.solutions_left < 0 then exhaust b
    end
  end

let with_phase b label f =
  if not b.limited then f ()
  else begin
    let saved = b.phase in
    b.phase <- label;
    Fun.protect ~finally:(fun () -> b.phase <- saved) f
  end

let capped b n f =
  if n < 0 then invalid_arg "Budget.capped: negative cap";
  (* an unlimited budget has nothing to charge, so the cap runs on a
     fresh limit-free view of its own *)
  let b =
    if b.limited then b
    else { unlimited with limited = true; halted = Atomic.make false }
  in
  if b.cap_left <> max_int then invalid_arg "Budget.capped: nested cap";
  b.cap_left <- min n (max_int - 1);
  match f b with
  | x ->
      b.cap_left <- max_int;
      Some x
  | exception Capped ->
      b.cap_left <- max_int;
      None
  | exception e ->
      b.cap_left <- max_int;
      raise e

let uncap b = if b.cap_left <> max_int then b.cap_left <- max_int

let is_limited b = b.limited
let spent b = b.spent
let phase b = b.phase

let pp ppf b =
  if not b.limited then Fmt.string ppf "unlimited"
  else
    Fmt.pf ppf "budget{spent %d; fuel left %s; deadline %s; solutions left %s}"
      b.spent
      (if b.fuel_left = max_int then "∞" else string_of_int b.fuel_left)
      (if b.deadline = infinity then "none"
       else Fmt.str "%.3fs away" (b.deadline -. Unix.gettimeofday ()))
      (if b.solutions_left = max_int then "∞" else string_of_int b.solutions_left)
