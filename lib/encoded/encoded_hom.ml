open Rdf

(* Pattern term: constant id, or variable id. *)
type pterm =
  | Const of int
  | Var of int

(* Sentinels for assignment slots. [unassigned] marks a free variable;
   [absent_id] marks a variable (or constant) bound to a term that is not
   in the graph's dictionary. Both are negative, so they can never collide
   with a real id, and a lookup keyed on [absent_id] binary-searches into
   an empty range — "matches nothing" falls out of the store with no
   special-casing (the term solver gets the same behaviour from a hash
   probe on a term the index has never seen). *)
let unassigned = -1
let absent_id = -2

type source = {
  graph : Encoded_graph.t;
  pats : (pterm * pterm * pterm) array;
  vars : Variable.t array;
      (* decode table for the whole assignment array — possibly wider than
         this source's own variables when a shared numbering is in use *)
  own : int list;
      (* indices (into [vars]) of the variables of the compiled t-graph;
         the domain of a decoded homomorphism, mirroring the term solver's
         "domain = vars(source)" contract *)
  touch : int list array;
      (* incidence: [touch.(v)] lists the indices (into [pats]) of the
         patterns mentioning variable slot [v] — what the join re-scores
         when [v] gets bound *)
}

let compile ?vars tgraph graph =
  let dict = Encoded_graph.dictionary graph in
  let own_vars = Variable.Set.elements (Tgraphs.Tgraph.vars tgraph) in
  let var_arr =
    match vars with
    | Some table -> table
    | None -> Array.of_list own_vars
  in
  let var_id = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace var_id v i) var_arr;
  let own =
    List.map
      (fun v ->
        match Hashtbl.find_opt var_id v with
        | Some i -> i
        | None ->
            invalid_arg
              (Fmt.str "Encoded_hom.compile: variable %a missing from table"
                 Variable.pp v))
      own_vars
  in
  let encode_term = function
    | Term.Var v -> Var (Hashtbl.find var_id v)
    | Term.Iri _ as t -> (
        match Dictionary.find dict t with
        | Some id -> Const id
        | None -> Const absent_id)
  in
  let pats =
    Array.of_list
      (List.map
         (fun t ->
           ( encode_term t.Triple.s,
             encode_term t.Triple.p,
             encode_term t.Triple.o ))
         (Tgraphs.Tgraph.triples tgraph))
  in
  let touch = Array.make (Array.length var_arr) [] in
  Array.iteri
    (fun i (s, p, o) ->
      let note = function
        | Const _ -> ()
        | Var v -> if not (List.mem i touch.(v)) then touch.(v) <- i :: touch.(v)
      in
      note s;
      note p;
      note o)
    pats;
  { graph; pats; vars = var_arr; own; touch }

let graph source = source.graph
let variables source = source.vars
let patterns source = Array.copy source.pats
let own_slots source = source.own

let encode_pre source (pre : Tgraphs.Homomorphism.assignment) =
  let dict = Encoded_graph.dictionary source.graph in
  let arr = Array.make (Array.length source.vars) unassigned in
  Array.iteri
    (fun i v ->
      match Variable.Map.find_opt v pre with
      | None -> ()
      | Some term -> (
          match Dictionary.find dict term with
          | Some id -> arr.(i) <- id
          | None -> arr.(i) <- absent_id))
    source.vars;
  arr

let decode source assignment =
  let dict = Encoded_graph.dictionary source.graph in
  let acc = ref Variable.Map.empty in
  Array.iteri
    (fun i id ->
      if id >= 0 then
        acc := Variable.Map.add source.vars.(i) (Dictionary.term_of dict id) !acc)
    assignment;
  !acc

(* Decode only the source's own variables — exact parity with the term
   solver, whose results have domain [vars source] (pre bindings of other
   variables are dropped). *)
let decode_own source assignment =
  let dict = Encoded_graph.dictionary source.graph in
  List.fold_left
    (fun acc i ->
      let id = assignment.(i) in
      if id >= 0 then
        Variable.Map.add source.vars.(i) (Dictionary.term_of dict id) acc
      else acc)
    Variable.Map.empty source.own

let bound assignment = function
  | Const id -> Some id
  | Var v -> if assignment.(v) <> unassigned then Some assignment.(v) else None

let pattern_lookup assignment (s, p, o) =
  (bound assignment s, bound assignment p, bound assignment o)

(* Check that [ord] is a permutation of [0 .. npat-1]. *)
let validate_order npat ord =
  if Array.length ord <> npat then
    invalid_arg "Encoded_hom.fold: order is not a permutation of the patterns";
  let seen = Array.make npat false in
  Array.iter
    (fun i ->
      if i < 0 || i >= npat || seen.(i) then
        invalid_arg
          "Encoded_hom.fold: order is not a permutation of the patterns";
      seen.(i) <- true)
    ord

let fold ?(budget = Resource.Budget.unlimited) ?order ?pre source ~init ~f =
  Resource.Budget.with_phase budget "hom" @@ fun () ->
  let { graph; pats; vars; touch; _ } = source in
  let npat = Array.length pats in
  let nvars = Array.length vars in
  let assignment =
    match pre with
    | None -> Array.make nvars unassigned
    | Some p ->
        if Array.length p <> nvars then
          invalid_arg "Encoded_hom.fold: pre has the wrong width";
        Array.copy p
  in
  (* Zero-pattern node: exactly one homomorphism — the prefix itself.
     Guarded explicitly (not via the depth = npat base case below) so the
     degenerate shape never reaches the selection machinery. *)
  if npat = 0 then fst (f init assignment)
  else begin
    let used = Array.make npat false in
    let count_pat i =
      let s, p, o = pattern_lookup assignment pats.(i) in
      Encoded_graph.match_count graph ?s ?p ?o ()
    in
    (* [rank] breaks score ties (lower = preferred): the position in
       [order] when one is given, the textual pattern order otherwise. *)
    let rank =
      match order with
      | None -> Array.init npat Fun.id
      | Some ord ->
          validate_order npat ord;
          let rank = Array.make npat 0 in
          Array.iteri (fun pos i -> rank.(i) <- pos) ord;
          rank
    in
    (* Lazily cached scores. A pattern's match count only changes when
       one of its own variables is (un)bound, so (un)binding [v] marks
       [touch.(v)] stale — a cheap flag — and the count is recomputed
       only if the pattern is actually considered at a later selection.
       Selection is therefore exact fail-first (every compared score
       reflects the current assignment), but patterns whose variables
       did not change keep their cached score instead of being re-counted
       at every depth. *)
    let score = Array.make npat 0 and stale = Array.make npat true in
    (* With one unused pattern left there is nothing to choose between:
       it is taken without counting its range (the join walks that range
       next anyway), and its score stays stale for a later selection
       that does compare it. *)
    let select depth =
      let best = ref (-1) in
      if depth = npat - 1 then begin
        for i = 0 to npat - 1 do
          if not used.(i) then best := i
        done
      end
      else
        for i = 0 to npat - 1 do
          if not used.(i) then begin
            if stale.(i) then begin
              score.(i) <- count_pat i;
              stale.(i) <- false
            end;
            if
              !best < 0
              || score.(i) < score.(!best)
              || (score.(i) = score.(!best) && rank.(i) < rank.(!best))
            then best := i
          end
        done;
      !best
    in
    (* The variables bound at every depth, innermost last: a triple binds
       [trail.(mark) .. trail.(!top - 1)] and unbinds them when it is
       done. A slot is bound at most once along the search path, so
       [nvars] entries suffice. *)
    let trail = Array.make nvars 0 and top = ref 0 in
    let unify pterm value =
      match pterm with
      | Const id -> id = value
      | Var v ->
          let cur = assignment.(v) in
          if cur = value then true
          else if cur = unassigned then begin
            assignment.(v) <- value;
            trail.(!top) <- v;
            incr top;
            true
          end
          else false
    in
    (* only the patterns touching a variable bound by this triple can
       have changed their match count — flag them stale and let the next
       selection that actually considers them recompute; unbinding
       changes the same counts back *)
    let touch_bound mark =
      for k = mark to !top - 1 do
        List.iter (fun i -> stale.(i) <- true) touch.(trail.(k))
      done
    in
    let rec go depth acc =
      if depth = npat then f acc assignment
      else begin
        Resource.Budget.tick budget;
        let best = select depth in
        used.(best) <- true;
        let ((ps, pp, po) as pat) = pats.(best) in
        let s, p, o = pattern_lookup assignment pat in
        let acc = ref acc in
        let continue_ = ref true in
        Encoded_graph.iter_matching graph ?s ?p ?o
          ~f:(fun (ts, tp, to_) ->
            if !continue_ then begin
              let mark = !top in
              if unify ps ts && unify pp tp && unify po to_ then begin
                touch_bound mark;
                (match go (depth + 1) !acc with
                | acc', `Continue -> acc := acc'
                | acc', `Stop ->
                    acc := acc';
                    continue_ := false);
                touch_bound mark
              end;
              for k = mark to !top - 1 do
                assignment.(trail.(k)) <- unassigned
              done;
              top := mark
            end)
          ();
        used.(best) <- false;
        (!acc, if !continue_ then `Continue else `Stop)
      end
    in
    fst (go 0 init)
  end

let iter ?budget ?order ?pre source ~f =
  fold ?budget ?order ?pre source ~init:() ~f:(fun () assignment ->
      (f assignment, `Continue))

let exists ?budget ?pre source =
  let pre = Option.map (encode_pre source) pre in
  fold ?budget ?pre source ~init:false ~f:(fun _ _ -> (true, `Stop))

let count ?budget ?pre source =
  let pre = Option.map (encode_pre source) pre in
  fold ?budget ?pre source ~init:0 ~f:(fun n _ -> (n + 1, `Continue))

let all ?budget ?pre ?limit source =
  let pre = Option.map (encode_pre source) pre in
  fold ?budget ?pre source ~init:[] ~f:(fun acc assignment ->
      let acc = decode_own source assignment :: acc in
      match limit with
      | Some l when List.length acc >= l -> (acc, `Stop)
      | _ -> (acc, `Continue))
  |> List.rev

let count_tgraph ?budget tgraph graph = count ?budget (compile tgraph graph)
