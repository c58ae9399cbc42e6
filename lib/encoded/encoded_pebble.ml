open Rdf

let explored = ref 0
let stats_families_explored () = !explored
let reset_stats () = explored := 0

let unknown_id = -2

(* ------------------------------------------------------------------ *)
(* Compiled representation                                             *)
(* ------------------------------------------------------------------ *)

(* A pattern position: a dictionary id (or [unknown_id] for an IRI the
   graph has never seen — such a triple can match nothing), a parameter
   (distinguished variable, frozen per run), or a free variable. *)
type pterm =
  | Cst of int
  | Prm of int
  | Fv of int

type t = {
  k : int;
  graph : Encoded_graph.t;
  params : Variable.t array;
  free_vars : Variable.t array;
  patterns : (pterm * pterm * pterm) array;
  universe : int array;  (* every dictionary id; [||] when unused *)
  (* Per free variable: sorted candidate ids from the µ-independent unary
     triples (those whose only variable is this one and contain no
     parameter), or [None] when unconstrained — then the whole term
     universe. Computed once per (pattern, graph): ISSUE PR2 (b). *)
  base : int array option array;
}

let params t = t.params
let free_count t = Array.length t.free_vars

(* ------------------------------------------------------------------ *)
(* Int-array partial maps                                              *)
(* ------------------------------------------------------------------ *)

(* A partial map {v1 ↦ a1, ...} over free-variable ids is a flat array
   [| v1; a1; v2; a2; ... |] sorted by variable id. Keys are hashed with
   an FNV-style mix over a dedicated hashtable functor — measurably
   cheaper than polymorphic hashing of term maps in the old kernel. *)

module Key = struct
  type t = int array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash a =
    let h = ref 0x811c9dc5 in
    Array.iter (fun x -> h := (!h lxor (x + 1)) * 0x01000193) a;
    !h land max_int
end

module Tbl = Hashtbl.Make (Key)

let key_has_var key v =
  let len = Array.length key / 2 in
  let rec go i = i < len && (key.(2 * i) = v || go (i + 1)) in
  go 0

let key_add key v a =
  let len = Array.length key / 2 in
  let out = Array.make ((2 * len) + 2) 0 in
  let pos = ref 0 in
  while !pos < len && key.(2 * !pos) < v do incr pos done;
  Array.blit key 0 out 0 (2 * !pos);
  out.(2 * !pos) <- v;
  out.((2 * !pos) + 1) <- a;
  Array.blit key (2 * !pos) out ((2 * !pos) + 2) (2 * (len - !pos));
  out

let key_remove key v =
  let len = Array.length key / 2 in
  let out = Array.make ((2 * len) - 2) 0 in
  let j = ref 0 in
  for i = 0 to len - 1 do
    if key.(2 * i) <> v then begin
      out.(2 * !j) <- key.(2 * i);
      out.((2 * !j) + 1) <- key.((2 * i) + 1);
      incr j
    end
  done;
  out

(* ------------------------------------------------------------------ *)
(* Unary candidate domains via sorted-array ranges                     *)
(* ------------------------------------------------------------------ *)

(* Candidates for the single variable of a unary triple, read off the
   matching range of its constant prefix (instead of testing every term
   of the universe as the term-level kernel does). Positions: [Some id]
   is a constant, [None] the variable. *)
let unary_candidates graph (s, p, o) =
  let acc = ref [] in
  Encoded_graph.iter_matching graph ?s ?p ?o
    ~f:(fun (ts, tp, to_) ->
      let value = ref (-1) in
      let ok pos bound =
        match bound with
        | Some _ -> true
        | None ->
            if !value < 0 then begin
              value := pos;
              true
            end
            else !value = pos
      in
      if ok ts s && ok tp p && ok to_ o then acc := !value :: !acc)
    ();
  Array.of_list (List.sort_uniq compare !acc)

(* A unary-candidate cache shared across the compiles of one
   (store, tree): two game families whose unary triples encode to the
   same constant pattern get the same candidate array, so the range
   scan runs once per (pattern, store-epoch) instead of once per
   family. Keys mention dictionary ids, so a cache is only meaningful
   against one store epoch — [Wd_core.Plan_cache] owns one per entry.
   Not thread-safe: callers serialise compiles (or use a private one). *)
type unary_cache = {
  table : (int option * int option * int option, int array) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create_unary_cache () =
  { table = Hashtbl.create 64; hits = 0; misses = 0 }

let unary_cache_stats c = (c.hits, c.misses)

let intersect_sorted a b =
  let out = ref [] and i = ref 0 and j = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      out := x :: !out;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Everything [compile] derives from (S, X) and the store except the
   term universe: the encoded patterns and the µ-independent base
   domains of the free variables. *)
let prepare ?unary g graph =
  let unary_candidates_cached pat =
    match unary with
    | None -> unary_candidates graph pat
    | Some c -> (
        match Hashtbl.find_opt c.table pat with
        | Some arr ->
            c.hits <- c.hits + 1;
            arr
        | None ->
            c.misses <- c.misses + 1;
            let arr = unary_candidates graph pat in
            Hashtbl.add c.table pat arr;
            arr)
  in
  let dict = Encoded_graph.dictionary graph in
  let x = Tgraphs.Gtgraph.x g in
  let s = Tgraphs.Gtgraph.s g in
  let params = Array.of_list (Variable.Set.elements x) in
  let free_vars =
    Array.of_list
      (Variable.Set.elements (Variable.Set.diff (Tgraphs.Tgraph.vars s) x))
  in
  let param_id = Hashtbl.create 16 and free_id = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace param_id v i) params;
  Array.iteri (fun i v -> Hashtbl.replace free_id v i) free_vars;
  let enc_term = function
    | Term.Iri _ as term -> (
        match Dictionary.find dict term with
        | Some id -> Cst id
        | None -> Cst unknown_id)
    | Term.Var v -> (
        match Hashtbl.find_opt param_id v with
        | Some j -> Prm j
        | None -> Fv (Hashtbl.find free_id v))
  in
  let patterns =
    Array.of_list
      (List.map
         (fun tr ->
           (enc_term tr.Triple.s, enc_term tr.Triple.p, enc_term tr.Triple.o))
         (Tgraphs.Tgraph.triples s))
  in
  let n = Array.length free_vars in
  let base = Array.make (max n 1) None in
  let free_ids (a, b, c) =
    List.sort_uniq compare
      (List.filter_map (function Fv v -> Some v | _ -> None) [ a; b; c ])
  in
  let has_prm (a, b, c) =
    List.exists (function Prm _ -> true | _ -> false) [ a; b; c ]
  in
  Array.iter
    (fun pat ->
      match free_ids pat with
      | [ v ] when not (has_prm pat) ->
          let pos = function
            | Cst i -> Some i
            | Fv _ -> None
            | Prm _ -> assert false
          in
          let a, b, c = pat in
          let cands = unary_candidates_cached (pos a, pos b, pos c) in
          base.(v) <-
            Some
              (match base.(v) with
              | None -> cands
              | Some prev -> intersect_sorted prev cands)
      | _ -> ())
    patterns;
  (params, free_vars, patterns, base)

let compile ?unary ~k g graph =
  if k < 1 then invalid_arg "Encoded_pebble.compile: k must be at least 1";
  let params, free_vars, patterns, base = prepare ?unary g graph in
  (* only an unconstrained free variable ranges over the universe *)
  let universe =
    if Array.exists Option.is_none (Array.sub base 0 (Array.length free_vars))
    then
      Array.init (Dictionary.size (Encoded_graph.dictionary graph)) Fun.id
    else [||]
  in
  { k; graph; params; free_vars; patterns; universe; base }

let domain_bound ?unary g graph =
  let _, free_vars, _, base = prepare ?unary g graph in
  let universe = Dictionary.size (Encoded_graph.dictionary graph) in
  let size v =
    match base.(v) with Some c -> Array.length c | None -> universe
  in
  Array.fold_left max 0 (Array.init (Array.length free_vars) size)

(* ------------------------------------------------------------------ *)
(* Running the game for one frozen µ                                   *)
(* ------------------------------------------------------------------ *)

(* Runtime pattern positions after substituting the parameters. *)
type rterm =
  | Rc of int
  | Rv of int

let run ?(budget = Resource.Budget.unlimited) t ~mu =
  if Array.length mu <> Array.length t.params then
    invalid_arg "Encoded_pebble.run: µ arity mismatch";
  Resource.Budget.with_phase budget "pebble" @@ fun () ->
  let subst = function
    | Cst i -> Rc i
    | Prm j -> Rc mu.(j)
    | Fv v -> Rv v
  in
  let n = Array.length t.free_vars in
  (* Substitute parameters; fail fast on an absent ground triple. *)
  let ground_ok = ref true in
  let nonground = ref [] in
  Array.iter
    (fun (a, b, c) ->
      let ra = subst a and rb = subst b and rc = subst c in
      match ra, rb, rc with
      | Rc x, Rc y, Rc z ->
          if !ground_ok && not (Encoded_graph.mem t.graph (x, y, z)) then
            ground_ok := false
      | _ ->
          let fv =
            List.sort_uniq compare
              (List.filter_map
                 (function Rv v -> Some v | Rc _ -> None)
                 [ ra; rb; rc ])
          in
          nonground := ((ra, rb, rc), fv) :: !nonground)
    t.patterns;
  if not !ground_ok then false
  else if n = 0 then true
  else begin
    let pattern_info = !nonground in
    (* Candidate domains: the precompiled base, narrowed by the unary
       triples that mention a parameter (their constants depend on µ).
       µ-independent unary patterns are already folded into [t.base]. *)
    let cands =
      Array.init n (fun v ->
          match t.base.(v) with None -> t.universe | Some c -> c)
    in
    Array.iter
      (fun (a, b, c) ->
        let has_prm =
          List.exists (function Prm _ -> true | _ -> false) [ a; b; c ]
        in
        let fv =
          List.sort_uniq compare
            (List.filter_map (function Fv v -> Some v | _ -> None) [ a; b; c ])
        in
        match fv with
        | [ v ] when has_prm ->
            let pos = function
              | Cst i -> Some i
              | Prm j -> Some mu.(j)
              | Fv _ -> None
            in
            let narrowed = unary_candidates t.graph (pos a, pos b, pos c) in
            cands.(v) <- intersect_sorted cands.(v) narrowed
        | _ -> ())
      t.patterns;
    if Array.exists (fun c -> Array.length c = 0) cands then false
    else begin
      let assign = Array.make n (-1) in
      let mem_subst (ra, rb, rc) =
        let value = function
          | Rc i -> i
          | Rv v -> assign.(v)
        in
        Encoded_graph.mem t.graph (value ra, value rb, value rc)
      in
      let alive : unit Tbl.t = Tbl.create 4096 in
      let key_of_dom dom_vars =
        let len = List.length dom_vars in
        let key = Array.make (2 * len) 0 in
        List.iteri
          (fun i v ->
            key.(2 * i) <- v;
            key.((2 * i) + 1) <- assign.(v))
          dom_vars;
        key
      in
      (* All alive partial homomorphisms with the given sorted domain. *)
      let enumerate dom_vars =
        let rec go remaining =
          match remaining with
          | [] ->
              incr explored;
              Tbl.replace alive (key_of_dom dom_vars) ()
          | v :: rest ->
              Array.iter
                (fun a ->
                  Resource.Budget.tick budget;
                  assign.(v) <- a;
                  let ok =
                    List.for_all
                      (fun (pat, fv) ->
                        if
                          List.mem v fv
                          && List.for_all (fun u -> assign.(u) >= 0) fv
                        then mem_subst pat
                        else true)
                      pattern_info
                  in
                  if ok then go rest;
                  assign.(v) <- -1)
                cands.(v)
        in
        go dom_vars
      in
      let rec subsets start size acc =
        if size = 0 then [ List.rev acc ]
        else if start >= n then []
        else
          List.concat_map
            (fun v -> subsets (v + 1) (size - 1) (v :: acc))
            (List.init (n - start) (fun i -> start + i))
      in
      for size = 0 to min t.k n do
        List.iter enumerate (subsets 0 size [])
      done;
      (* Forth-property counters: counters(h).(x) = number of alive
         one-point extensions of h at free variable x. *)
      let counters : int array Tbl.t = Tbl.create 4096 in
      let dead = Queue.create () in
      Tbl.iter
        (fun key () ->
          let len = Array.length key / 2 in
          if len < t.k then begin
            let cnt = Array.make n (-1) in
            for v = 0 to n - 1 do
              if not (key_has_var key v) then begin
                Resource.Budget.tick budget;
                let c = ref 0 in
                Array.iter
                  (fun a -> if Tbl.mem alive (key_add key v a) then incr c)
                  cands.(v);
                cnt.(v) <- !c;
                if !c = 0 then Queue.add key dead
              end
            done;
            Tbl.replace counters key cnt
          end)
        alive;
      (* Worklist removal down to the greatest consistent family. *)
      while not (Queue.is_empty dead) do
        Resource.Budget.tick budget;
        let key = Queue.pop dead in
        if Tbl.mem alive key then begin
          Tbl.remove alive key;
          let len = Array.length key / 2 in
          (* restrictions lose an extension *)
          for i = 0 to len - 1 do
            let v = key.(2 * i) in
            let g_key = key_remove key v in
            if Tbl.mem alive g_key then
              match Tbl.find_opt counters g_key with
              | Some cnt when cnt.(v) >= 0 ->
                  cnt.(v) <- cnt.(v) - 1;
                  if cnt.(v) <= 0 then Queue.add g_key dead
              | _ -> ()
          done;
          (* alive extensions violate downward closure *)
          if len < t.k then
            for v = 0 to n - 1 do
              if not (key_has_var key v) then
                Array.iter
                  (fun a ->
                    let h_key = key_add key v a in
                    if Tbl.mem alive h_key then Queue.add h_key dead)
                  cands.(v)
            done
        end
      done;
      Tbl.mem alive [||]
    end
  end

(* ------------------------------------------------------------------ *)
(* Term-level entry point (mirror of Pebble_game.wins)                 *)
(* ------------------------------------------------------------------ *)

let encode_mu t mu =
  let dict = Encoded_graph.dictionary t.graph in
  Array.map
    (fun v ->
      match Variable.Map.find_opt v mu with
      | Some (Term.Iri _ as term) -> (
          match Dictionary.find dict term with
          | Some id -> id
          | None -> unknown_id)
      | Some (Term.Var _) ->
          invalid_arg "Encoded_pebble.wins: µ maps a variable to a non-IRI"
      | None -> invalid_arg "Encoded_pebble.wins: µ does not cover X")
    t.params

let wins ?budget ~k g ~mu graph =
  let compiled = compile ~k g graph in
  run ?budget compiled ~mu:(encode_mu compiled mu)
