(** Resource budgets for the intentionally-exponential kernels.

    Half of this codebase — exact treewidth, cores, exact homomorphism
    tests, naive evaluation, domination width — is worst-case exponential
    {e by design} (the paper's Theorem 2 side). A budget makes "too hard
    under current limits" a first-class, promptly-reported outcome instead
    of an unbounded burn: every such kernel accepts a [Budget.t] and calls
    {!tick} at its loop heads, which raises {!Exhausted} as soon as any of
    the three limits trips:

    - a {b fuel} counter: a deterministic step budget, decremented on every
      tick — reproducible across runs, the fault-injection lever the tests
      use;
    - a wall-clock {b deadline}: checked every few ticks (the clock is only
      read once per {!deadline_check_interval} ticks, so ticking stays
      cheap);
    - a {b solution cap}: counted by {!solution} at every answer an
      enumerator emits.

    A budget is a single mutable object threaded by reference: spending is
    visible to the caller afterwards via {!spent}, so a planner can try an
    exact computation under a slice and fall back when it trips (see
    [Wd_core.Engine.plan]). The shared {!unlimited} budget never trips and
    costs one branch per tick, so un-budgeted callers pay essentially
    nothing.

    Evaluation is sequential, so a budget is spent by one thread at a
    time; only {!cancel} may come from another. *)

type t

exception Exhausted of { phase : string; spent : int }
(** Raised by {!tick} / {!solution} when a limit trips. [phase] is the
    innermost {!with_phase} label active at the raise ("treewidth",
    "pebble", "naive-eval", …); [spent] the number of ticks consumed.
    Catch it at an entry point — or let [Wdsparql_error.guard] turn it
    into [`Budget_exhausted`]. *)

val unlimited : t
(** The shared never-tripping budget; the default everywhere. *)

val make : ?fuel:int -> ?timeout:float -> ?max_solutions:int -> unit -> t
(** A fresh budget. [fuel] is a tick count (raises [Invalid_argument] if
    [≤ 0]); [timeout] is seconds from now; [max_solutions] caps
    {!solution} calls. With no limits given, returns {!unlimited}. *)

val tick : t -> unit
(** Account one unit of work; raises {!Exhausted} when the fuel or the
    deadline is gone. Call at loop heads of exponential searches. *)

val solution : t -> unit
(** Account one emitted answer; raises {!Exhausted} once the cap is
    exceeded (the capped number of answers itself is allowed). *)

val with_phase : t -> string -> (unit -> 'a) -> 'a
(** [with_phase b label f] runs [f] with [label] as the budget's current
    phase, restoring the previous label afterwards (also on exceptions).
    Kernels wrap their entry points so {!Exhausted} can say {e where} the
    budget went. No-op on {!unlimited}. *)

val cancel : t -> unit
(** Halt this budget at its next deadline-check tick, at most
    {!deadline_check_interval} ticks away. Safe to call from another
    thread (the server's drain path cancels in-flight request budgets
    this way). Cancellation is permanent. No-op on {!unlimited}. *)

val replenish : ?cap:int -> t -> int -> unit
(** [replenish b n] adds [n] fuel units to [b]'s account, clamped so the
    account never exceeds [cap] (default: effectively unbounded) and an
    account above [cap] is left unchanged. No-op on {!unlimited}, on budgets
    without a fuel limit, and for [n ≤ 0]. This is an account transfer,
    not work: {!spent} is unaffected. *)

val try_withdraw : t -> int -> bool
(** [try_withdraw b n] removes [n] fuel units from [b]'s account if at
    least [n] are available, returning whether it did. Always [true] on {!unlimited}
    and on budgets without a fuel limit; raises [Invalid_argument] on
    negative [n]. Together with {!replenish} this turns a budget into
    the token-bucket account behind {!Token_bucket}. *)

val fuel_left : t -> int option
(** The fuel currently available to this budget, or [None] when fuel is
    unlimited. Observability hook for refill tests and [/stats]. *)

val capped : t -> int -> (t -> 'a) -> 'a option
(** [capped b n f] runs [f] on a budget that allows at most [n] ticks
    (raises [Invalid_argument] on [n < 0]): [Some (f b')], or [None] —
    "capped" — as soon as [f] ticks for the [(n+1)]-th time, without
    raising. The cap only adds a limit: [b]'s fuel, deadline, solution
    cap and {!cancel} still raise {!Exhausted} from inside [f], and
    every tick [f] spends is charged to [b] ({!spent} and fuel). Caps do
    not nest: calling [capped] on [b'] inside [f] raises
    [Invalid_argument]. On a limited budget [b' = b]; on {!unlimited}
    [b'] is a fresh view with no other limit, or [b] itself when it is
    a {!cap_view}. The engine's child joins run under it until their
    first extension. *)

val cap_view : t -> t
(** The budget {!capped} runs [f] on: [b] itself when it is limited,
    otherwise a fresh view with no limit of its own. Build it once and
    pass it to every {!capped} call of a loop, so that no call builds
    one. *)

val uncap : t -> unit
(** Inside {!capped}'s [f], called on the budget [f] received: lift the
    running cap, so the rest of [f] runs under the outer limits only
    and [capped] returns [Some]. No-op outside a capped region. A child
    join calls it at its first extension: the cap bounds the search for
    that witness, not the number of answers. *)

val is_limited : t -> bool
(** [false] exactly for {!unlimited}. *)

val spent : t -> int
(** Ticks consumed so far (diagnostics; meaningless on {!unlimited}). *)

val phase : t -> string
(** The current phase label. *)

val deadline_check_interval : int
(** How many ticks pass between wall-clock reads (a power of two). *)

val pp : t Fmt.t
