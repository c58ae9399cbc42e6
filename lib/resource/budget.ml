type t = {
  mutable fuel_left : int;  (* max_int = no fuel limit *)
  mutable spent : int;
  mutable solutions_left : int;  (* max_int = no cap *)
  deadline : float;  (* absolute Unix time; infinity = none *)
  mutable phase : string;
  limited : bool;
  halted : bool Atomic.t;
      (* cancellation, settable from another thread (the server's drain
         path): checked at deadline-check ticks *)
  mutable cap_left : int;
      (* ticks left under the running [capped] region; max_int = none *)
}

exception Exhausted of { phase : string; spent : int }

(* Raised by [tick] when the running cap is gone; never escapes
   [capped]. *)
exception Capped

let deadline_check_interval = 64

let unlimited =
  {
    fuel_left = max_int;
    spent = 0;
    solutions_left = max_int;
    deadline = infinity;
    phase = "-";
    limited = false;
    halted = Atomic.make false;
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
        cap_left = max_int;
      }

let exhaust b = raise (Exhausted { phase = b.phase; spent = b.spent })

let tick b =
  if b.limited then begin
    b.spent <- b.spent + 1;
    if b.fuel_left <> max_int then begin
      b.fuel_left <- b.fuel_left - 1;
      if b.fuel_left <= 0 then exhaust b
    end;
    if b.spent land (deadline_check_interval - 1) = 0 then begin
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

let cancel b = if b.limited then Atomic.set b.halted true

(* Refill/withdraw treat a budget as a fuel account (the server's global
   admission pool): no ticks are recorded, fuel just moves in and out. *)

let default_cap = max_int - 1
(* clamping at [max_int] would turn a limited pool into the "no fuel
   limit" sentinel *)

let replenish ?(cap = default_cap) b n =
  if b.limited && n > 0 then begin
    let cap = min cap default_cap in
    if b.fuel_left < max_int then
      b.fuel_left <-
        (if b.fuel_left >= cap - n then max b.fuel_left cap
         else b.fuel_left + n)
  end

let try_withdraw b n =
  if n < 0 then invalid_arg "Budget.try_withdraw: negative amount";
  if (not b.limited) || n = 0 || b.fuel_left = max_int then true
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

(* A match rather than [Fun.protect], which allocates two closures per
   call: the engine enters a phase once per child join. *)
let with_phase b label f =
  if not b.limited then f ()
  else begin
    let saved = b.phase in
    b.phase <- label;
    match f () with
    | x ->
        b.phase <- saved;
        x
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        b.phase <- saved;
        Printexc.raise_with_backtrace e bt
  end

(* an unlimited budget has nothing to charge, so a cap runs on a fresh
   limit-free view of its own *)
let cap_view b =
  if b.limited then b
  else { unlimited with limited = true; halted = Atomic.make false }

let capped b n f =
  if n < 0 then invalid_arg "Budget.capped: negative cap";
  let b = cap_view b in
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
