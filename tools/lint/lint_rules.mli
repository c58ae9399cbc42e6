(** The codebase discipline lint, run by [dune runtest] (see the rule in
    [tools/lint/dune]):

    - every exponential kernel module listed in {!kernel_modules} must
      call [Budget.tick] (or go through [Budget.guard]) so that no
      exponential loop can run unbounded — the PR-1 discipline;
    - [Pebble_game.wins] may only be called under [lib/pebble]: it is
      the test oracle, and everything else goes through the cached
      engine entry points, never the raw game;
    - [Graph.to_index] is forbidden under [lib/core] and [lib/server]:
      the engine evaluates on the encoded store only, and the term
      index of a mapped store must never be forced;
    - [Unix.map_file] and [Bigarray] are confined to [lib/storage]: the
      rest of the tree consumes a compiled store only through the
      closure views, keeping the query kernels backend-blind;
    - no sleep-polling: [Thread.delay] and [Unix.sleep]/[Unix.sleepf]
      are counted per file against an allowance ([server/io.ml] 1, the
      injected slow-client stall; [server/server.ml] 2, the drain-time
      waits of [join]; 0 everywhere else) — a thread waiting for work
      blocks on a [Condition.t] instead;
    - a module that creates a [Mutex.t] must
      not mutate a top-level [Hashtbl] unguarded: every
      [Hashtbl.replace]/[Hashtbl.add] on a [let name = Hashtbl.create …]
      table needs a [Mutex.protect]/[Mutex.lock] between the enclosing
      top-level binding's start and the mutation — the mutex advertises
      multi-threaded use, so a bare mutation is a race;
    - no polymorphic [compare] in the store's probe kernels
      ({!probe_kernels}): ids there are compared with [Int.compare] or
      a monomorphic helper, since the polymorphic one costs more than
      the probe it sits in.

    Matching is performed on source text with OCaml comments and string
    literals blanked out, so mentions in documentation or error messages
    do not count. *)

type violation = { path : string; line : int; message : string }

val pp_violation : violation Fmt.t
(** [path:line: message] — clickable in editors and CI logs. *)

val strip : string -> string
(** Blank out OCaml comments (nested) and string/char literals,
    preserving byte positions and newlines, so that [line] numbers of
    matches in the result are those of the original source. *)

val kernel_modules : string list
(** Paths relative to the scanned root ([lib/]) of the modules housing
    exponential search: these must tick a budget. *)

val probe_kernels : string list
(** Paths relative to the scanned root of the modules whose inner loops
    probe the store or handle every answer: no bare [compare] there. *)

val wins_allowed : string -> bool
(** Whether this root-relative path may call [Pebble_game.wins]. *)

val check_file :
  ?manifest:string list ->
  ?wins_allowed:(string -> bool) ->
  rel:string ->
  string ->
  violation list
(** Lint one file's contents; [rel] is its path relative to the root. *)

val check_tree :
  ?manifest:string list ->
  ?wins_allowed:(string -> bool) ->
  root:string ->
  unit ->
  violation list
(** Lint every [.ml] file under [root] (recursively, sorted), and report
    any manifest entry that does not exist on disk — a renamed kernel
    silently escaping the discipline is itself a violation. The optional
    parameters override the manifest and allow-list (used by the tests to
    seed violations in a scratch tree). *)
