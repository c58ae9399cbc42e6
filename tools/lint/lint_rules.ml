type violation = { path : string; line : int; message : string }

let pp_violation ppf v = Fmt.pf ppf "%s:%d: %s" v.path v.line v.message

(* Blank out comments and string/char literals, keeping every byte
   position (newlines survive, everything else becomes a space). A
   pragmatic OCaml lexer: nested [(* *)] comments, ["..."] strings with
   backslash escapes, and ['c'] char literals (distinguished from type
   variables by lookahead). String literals inside comments are not
   special-cased — none in this tree contain a ["*)"]. *)
let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let rec code i =
    if i >= n then ()
    else
      match src.[i] with
      | '(' when i + 1 < n && src.[i + 1] = '*' ->
          blank i;
          blank (i + 1);
          comment 1 (i + 2)
      | '"' ->
          blank i;
          string (i + 1)
      | '\'' when i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' ->
          blank i;
          blank (i + 1);
          blank (i + 2);
          code (i + 3)
      | '\'' when i + 1 < n && src.[i + 1] = '\\' ->
          (* escaped char literal: blank until the closing quote *)
          let rec close j =
            if j >= n then ()
            else begin
              blank j;
              if src.[j] = '\'' then code (j + 1) else close (j + 1)
            end
          in
          blank i;
          close (i + 1)
      | _ -> code (i + 1)
  and comment depth i =
    if i >= n then ()
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
      blank i;
      blank (i + 1);
      comment (depth + 1) (i + 2)
    end
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then begin
      blank i;
      blank (i + 1);
      if depth = 1 then code (i + 2) else comment (depth - 1) (i + 2)
    end
    else begin
      blank i;
      comment depth (i + 1)
    end
  and string i =
    if i >= n then ()
    else begin
      blank i;
      match src.[i] with
      | '\\' ->
          if i + 1 < n then blank (i + 1);
          string (i + 2)
      | '"' -> code (i + 1)
      | _ -> string (i + 1)
    end
  in
  code 0;
  Bytes.to_string out

let kernel_modules =
  [
    "analysis/satisfiability.ml";
    "core/domination_width.ml";
    "core/enumerate.ml";
    "core/plan_cache.ml";
    "encoded/encoded_hom.ml";
    "encoded/encoded_pebble.ml";
    "graphtheory/treewidth.ml";
    "optimizer/join_order.ml";
    "pebble/pebble_game.ml";
    "sparql/eval.ml";
    "storage/overlay.ml";
    "tgraph/cores.ml";
    "tgraph/homomorphism.ml";
    "wdpt/subtree.ml";
  ]

let under prefix rel =
  String.length rel >= String.length prefix
  && String.sub rel 0 (String.length prefix) = prefix

(* The term-level pebble game is the test oracle: the engine runs every
   child game through the encoded kernel, so only lib/pebble itself may
   call it. *)
let wins_allowed rel = under "pebble/" rel

(* The engine evaluates on dictionary ids only: a [Graph.to_index] under
   lib/core or lib/server would force a mapped store's deferred term
   index and reopen the term-level data path. *)
let to_index_forbidden rel = under "core/" rel || under "server/" rel

(* Raw socket I/O is confined to the server's deadline-aware wrappers:
   a bare [Unix.read]/[Unix.write] elsewhere can block forever and
   bypasses the fd accounting the fault harness leans on. The needles
   are prefixes, so [Unix.write_substring] etc. are caught too. *)
let raw_io_needles =
  [ "Unix.read"; "Unix.write"; "Unix.single_write"; "Unix.recv"; "Unix.send" ]

let raw_io_allowed rel = rel = "server/io.ml"

(* The byte-layout and mapping concerns of the compiled store are
   confined to lib/storage: everything else consumes a store through the
   closure views ([Rdf.Dictionary.of_view],
   [Encoded_graph.of_views]). A [Unix.map_file] or any [Bigarray]
   access elsewhere means the abstraction leaked — the query kernels
   must stay backend-blind. *)
let mmap_needles = [ "Unix.map_file"; "Bigarray." ]

let mmap_allowed rel = under "storage/" rel

(* The store's probe kernels — the range search, the join's inner loop
   and the overlay's merged view — compare ids on every probe. A bare
   [compare] there is the polymorphic one (a C call that walks its
   arguments, and for tuples a fresh allocation to feed it), which cost
   several times the probe it sat in; ids are compared with
   [Int.compare] or a monomorphic helper instead. *)
let probe_kernels =
  [ "encoded/encoded_graph.ml"; "encoded/encoded_hom.ml"; "storage/overlay.ml" ]

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Line number (1-based) of the first occurrence of [needle]. *)
let line_of ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i line =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then Some line
    else go (i + 1) (if hay.[i] = '\n' then line + 1 else line)
  in
  go 0 1

(* Every occurrence of [needle], as (byte offset, 1-based line). *)
let occurrences ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i line acc =
    if i + nl > hl then List.rev acc
    else
      let acc =
        if String.sub hay i nl = needle then (i, line) :: acc else acc
      in
      go (i + 1) (if hay.[i] = '\n' then line + 1 else line) acc
  in
  go 0 1 []

(* No sleep-polling: a thread that wants work or a state change blocks
   on a [Condition.t] (or a deadline-aware select) instead of waking on
   a timer to look. The needles are prefixes ([Unix.sleep] also catches
   [Unix.sleepf]). Each file has an allowance of occurrences: the
   injected slow-client [Stall] in the io module, and the two waits of
   the server's drain ([join] polls for the signal-set stop flag and for
   the workers to finish). Every occurrence past the allowance is
   flagged. *)
let sleep_needles = [ "Thread.delay"; "Unix.sleep" ]

let sleep_allowance = function
  | "server/io.ml" -> 1
  | "server/server.ml" -> 2
  | _ -> 0

let forbidden_sleeps ~rel stripped =
  let allowance = sleep_allowance rel in
  List.concat_map
    (fun needle ->
      List.map (fun (off, line) -> (off, line, needle))
        (occurrences ~needle stripped))
    sleep_needles
  |> List.sort compare
  |> List.filteri (fun i _ -> i >= allowance)
  |> List.map (fun (_, line, needle) ->
         {
           path = rel;
           line;
           message =
             Printf.sprintf
               "%s past this file's sleep allowance (%d): block on a \
                Condition.t instead of polling on a timer"
               needle allowance;
         })

(* Shared-state discipline: a module that creates its own [Mutex.t] is
   advertising that it is touched from more than one thread (the
   server's workers), so every mutation of one of its top-level hash
   tables must be under a lock — an unguarded [Hashtbl.replace]/[add]
   next to a mutex is a race waiting for a second thread. The
   check is lexical: from the mutation, scan back to the top-level
   binding it lives in; a [Mutex.protect] or [Mutex.lock] in between
   counts as the guard. *)

let is_ident s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '\'')
       s

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* "let NAME [: type] = Hashtbl.create …" at column 0 of a stripped
   line: a top-level table binding (parameterized lets — functions that
   build local tables — have their parameters between NAME and '=' and
   do not match). *)
let table_of_line line =
  if not (starts_with ~prefix:"let " line) then None
  else
    match String.index_opt line '=' with
    | None -> None
    | Some eq ->
        let rhs =
          String.trim (String.sub line (eq + 1) (String.length line - eq - 1))
        in
        if not (starts_with ~prefix:"Hashtbl.create" rhs) then None
        else
          let lhs = String.sub line 4 (eq - 4) in
          let lhs =
            match String.index_opt lhs ':' with
            | Some c -> String.sub lhs 0 c
            | None -> lhs
          in
          let name = String.trim lhs in
          if is_ident name then Some name else None

let unguarded_table_mutations ~rel stripped =
  if not (contains ~needle:"Mutex.create" stripped) then []
  else begin
    let lines = Array.of_list (String.split_on_char '\n' stripped) in
    (* byte offset where each line starts, for the backward scans *)
    let starts = Array.make (Array.length lines) 0 in
    let _ =
      Array.iteri
        (fun i l ->
          if i + 1 < Array.length starts then
            starts.(i + 1) <- starts.(i) + String.length l + 1)
        lines
    in
    let tables =
      Array.to_list lines |> List.filter_map table_of_line
    in
    let binding_start_of line =
      (* nearest enclosing top-level binding: the last column-0 [let]
         at or above [line] (0-based index) *)
      let rec up i =
        if i < 0 then 0
        else if starts_with ~prefix:"let " lines.(i) then starts.(i)
        else up (i - 1)
      in
      up line
    in
    let boundary_ok off len =
      (* the table name must end at a word boundary — [Hashtbl.replace t]
         must not match [Hashtbl.replace t.plans] for a table [t] *)
      let j = off + len in
      j >= String.length stripped
      ||
      let c = stripped.[j] in
      not
        ((c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_' || c = '\'' || c = '.')
    in
    List.concat_map
      (fun name ->
        List.concat_map
          (fun op ->
            let needle = Printf.sprintf "Hashtbl.%s %s" op name in
            List.filter_map
              (fun (off, line) ->
                if not (boundary_ok off (String.length needle)) then None
                else
                  let start = binding_start_of (line - 1) in
                  let span = String.sub stripped start (off - start) in
                  if
                    contains ~needle:"Mutex.protect" span
                    || contains ~needle:"Mutex.lock" span
                  then None
                  else
                    Some
                      {
                        path = rel;
                        line;
                        message =
                          Printf.sprintf
                            "unguarded Hashtbl.%s on top-level table %s in \
                             a module that creates a Mutex: take the lock \
                             (Mutex.protect/Mutex.lock) before mutating \
                             shared state"
                            op name;
                      })
              (occurrences ~needle stripped))
          [ "replace"; "add" ])
      tables
  end

let ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* [compare] as a whole word, unqualified or qualified by [Stdlib]:
   [Int.compare] and [compare_key] do not count. *)
let bare_compares ~rel stripped =
  if not (List.mem rel probe_kernels) then []
  else
    let n = String.length stripped and word = String.length "compare" in
    let ends_word off =
      off + word >= n || not (ident_char stripped.[off + word])
    in
    let unqualified off =
      off = 0
      || (not (ident_char stripped.[off - 1]) && stripped.[off - 1] <> '.')
      || (off >= 7 && String.sub stripped (off - 7) 7 = "Stdlib.")
    in
    List.filter_map
      (fun (off, line) ->
        if unqualified off && ends_word off then
          Some
            {
              path = rel;
              line;
              message =
                "polymorphic compare in a probe kernel: compare ids with \
                 Int.compare or a monomorphic helper";
            }
        else None)
      (occurrences ~needle:"compare" stripped)

let default_wins_allowed = wins_allowed

let check_file ?(manifest = kernel_modules) ?(wins_allowed = wins_allowed)
    ~rel contents =
  let stripped = strip contents in
  let missing_tick =
    if
      List.mem rel manifest
      && (not (contains ~needle:"Budget.tick" stripped))
      && not (contains ~needle:"Budget.guard" stripped)
    then
      [
        {
          path = rel;
          line = 1;
          message =
            "exponential kernel module never calls Budget.tick (or \
             Budget.guard): unbounded search escapes the resource \
             discipline";
        };
      ]
    else []
  in
  let forbidden_wins =
    match line_of ~needle:"Pebble_game.wins" stripped with
    | Some line when not (wins_allowed rel) ->
        [
          {
            path = rel;
            line;
            message =
              "direct call to Pebble_game.wins outside lib/pebble: use \
               the cached Engine entry points";
          };
        ]
    | _ -> []
  in
  let forbidden_to_index =
    match line_of ~needle:"Graph.to_index" stripped with
    | Some line when to_index_forbidden rel ->
        [
          {
            path = rel;
            line;
            message =
              "Graph.to_index under lib/core or lib/server: the engine \
               evaluates on the encoded store (Encoded_graph.of_graph_cached)";
          };
        ]
    | _ -> []
  in
  let forbidden_raw_io =
    if raw_io_allowed rel then []
    else
      List.filter_map
        (fun needle ->
          match line_of ~needle stripped with
          | Some line ->
              Some
                {
                  path = rel;
                  line;
                  message =
                    Printf.sprintf
                      "raw %s outside lib/server/io.ml: socket I/O must \
                       go through the deadline-aware Io wrappers"
                      needle;
                }
          | None -> None)
        raw_io_needles
  in
  let forbidden_mmap =
    if mmap_allowed rel then []
    else
      List.filter_map
        (fun needle ->
          match line_of ~needle stripped with
          | Some line ->
              Some
                {
                  path = rel;
                  line;
                  message =
                    Printf.sprintf
                      "%s outside lib/storage: mapped-store bytes are \
                       confined there; consume stores through the \
                       Dictionary/Encoded_graph view constructors"
                      needle;
                }
          | None -> None)
        mmap_needles
  in
  missing_tick @ forbidden_wins @ forbidden_to_index @ forbidden_raw_io
  @ forbidden_mmap
  @ forbidden_sleeps ~rel stripped
  @ unguarded_table_mutations ~rel stripped
  @ bare_compares ~rel stripped

let check_tree ?(manifest = kernel_modules)
    ?(wins_allowed = default_wins_allowed) ~root () =
  let files = ref [] in
  let rec walk dir rel_dir =
    Array.iter
      (fun entry ->
        let path = Filename.concat dir entry in
        let rel =
          if rel_dir = "" then entry else rel_dir ^ "/" ^ entry
        in
        if Sys.is_directory path then walk path rel
        else if Filename.check_suffix entry ".ml" then
          files := (rel, path) :: !files)
      (Sys.readdir dir)
  in
  walk root "";
  let files = List.sort compare !files in
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let missing_manifest =
    List.filter_map
      (fun m ->
        if List.mem_assoc m files then None
        else
          Some
            {
              path = m;
              line = 1;
              message =
                "kernel module listed in the lint manifest does not \
                 exist: update tools/lint/lint_rules.ml after the rename";
            })
      manifest
  in
  missing_manifest
  @ List.concat_map
      (fun (rel, path) -> check_file ~manifest ~wins_allowed ~rel (read path))
      files
