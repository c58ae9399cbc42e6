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
let unassigned = Encoded_graph.unbound
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
  touch : int array array;
      (* incidence: [touch.(v)] holds the indices (into [pats]) of the
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
  { graph; pats; vars = var_arr; own; touch = Array.map Array.of_list touch }

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

(* The id a pattern position probes with under [row]: a constant, a
   bound variable's id, or [unassigned] = {!Encoded_graph.unbound}. *)
let value row = function Const id -> id | Var v -> row.(v)

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

(* One join's working state, built once and reset by every [run], so a
   run allocates nothing of its own: what it returns is up to [emit]. *)
type search = {
  src : source;
  row : int array;  (* the working assignment *)
  used : bool array;
  rank : int array;
      (* breaks score ties (lower = preferred): the position in the
         join's [order] when one is given, the textual order otherwise *)
  score : int array;
  stale : bool array;
  trail : int array;
      (* the variables bound at every depth, innermost last: a triple
         binds [trail.(mark) .. trail.(top - 1)] and unbinds them when it
         is done. A slot is bound at most once along the search path, so
         [nvars] entries suffice. *)
  mutable top : int;
  cursors : Encoded_graph.cursor array;  (* one per depth *)
  emit : int array -> bool;
  mutable budget : Resource.Budget.t;
  mutable stopped : bool;
  mutable body : unit -> unit;
      (* the search from depth 0, built once so that entering the "hom"
         phase allocates no closure *)
}

(* Lazily cached scores. A pattern's match count only changes when one
   of its own variables is (un)bound, so (un)binding [v] marks
   [touch.(v)] stale — a cheap flag — and the count is recomputed only
   if the pattern is actually considered at a later selection. Selection
   is therefore exact fail-first (every compared score reflects the
   current assignment), but patterns whose variables did not change keep
   their cached score instead of being re-counted at every depth. With
   one unused pattern left there is nothing to choose between: it is
   taken without counting its range (the join walks that range next
   anyway), and its score stays stale for a later selection that does
   compare it. *)
let select st depth =
  let pats = st.src.pats in
  let npat = Array.length pats in
  let used = st.used and score = st.score and rank = st.rank in
  let best = ref (-1) in
  if depth = npat - 1 then begin
    for i = 0 to npat - 1 do
      if not used.(i) then best := i
    done
  end
  else
    for i = 0 to npat - 1 do
      if not used.(i) then begin
        if st.stale.(i) then begin
          let s, p, o = pats.(i) in
          let row = st.row in
          score.(i) <-
            Encoded_graph.match_count st.src.graph (value row s) (value row p)
              (value row o);
          st.stale.(i) <- false
        end;
        let b = !best in
        if
          b < 0
          || score.(i) < score.(b)
          || (score.(i) = score.(b) && rank.(i) < rank.(b))
        then best := i
      end
    done;
  !best

let unify st pterm value =
  match pterm with
  | Const id -> id = value
  | Var v ->
      let cur = st.row.(v) in
      if cur = value then true
      else if cur = unassigned then begin
        st.row.(v) <- value;
        st.trail.(st.top) <- v;
        st.top <- st.top + 1;
        true
      end
      else false

(* only the patterns touching a variable bound by this triple can have
   changed their match count — flag them stale and let the next
   selection that actually considers them recompute; unbinding changes
   the same counts back *)
let touch_bound st mark =
  for k = mark to st.top - 1 do
    let pats = st.src.touch.(st.trail.(k)) in
    for j = 0 to Array.length pats - 1 do
      st.stale.(pats.(j)) <- true
    done
  done

let rec go st depth =
  let pats = st.src.pats in
  if depth = Array.length pats then begin
    if st.emit st.row then st.stopped <- true
  end
  else begin
    Resource.Budget.tick st.budget;
    let best = select st depth in
    st.used.(best) <- true;
    let ps, pp, po = pats.(best) in
    let cur = st.cursors.(depth) and row = st.row in
    Encoded_graph.seek cur (value row ps) (value row pp) (value row po);
    while (not st.stopped) && Encoded_graph.next cur do
      let mark = st.top in
      if
        unify st ps (Encoded_graph.subject cur)
        && unify st pp (Encoded_graph.predicate cur)
        && unify st po (Encoded_graph.object_ cur)
      then begin
        touch_bound st mark;
        go st (depth + 1);
        touch_bound st mark
      end;
      for k = mark to st.top - 1 do
        row.(st.trail.(k)) <- unassigned
      done;
      st.top <- mark
    done;
    st.used.(best) <- false
  end

let search ?order ~emit source =
  let npat = Array.length source.pats and nvars = Array.length source.vars in
  let rank =
    match order with
    | None -> Array.init npat Fun.id
    | Some ord ->
        validate_order npat ord;
        let rank = Array.make npat 0 in
        Array.iteri (fun pos i -> rank.(i) <- pos) ord;
        rank
  in
  let st =
    {
      src = source;
      row = Array.make nvars unassigned;
      used = Array.make npat false;
      rank;
      score = Array.make npat 0;
      stale = Array.make npat true;
      trail = Array.make nvars 0;
      top = 0;
      cursors =
        Array.init npat (fun _ -> Encoded_graph.cursor source.graph);
      emit;
      budget = Resource.Budget.unlimited;
      stopped = false;
      body = ignore;
    }
  in
  st.body <- (fun () -> go st 0);
  st

let run st budget pre =
  if Array.length pre <> Array.length st.row then
    invalid_arg "Encoded_hom.fold: pre has the wrong width";
  Array.blit pre 0 st.row 0 (Array.length pre);
  Array.fill st.used 0 (Array.length st.used) false;
  Array.fill st.stale 0 (Array.length st.stale) true;
  st.top <- 0;
  st.stopped <- false;
  st.budget <- budget;
  (* a zero-pattern node folds over exactly one homomorphism, the
     prefix itself: [go] emits it at depth 0 *)
  Resource.Budget.with_phase budget "hom" st.body;
  st.budget <- Resource.Budget.unlimited

let fold ?(budget = Resource.Budget.unlimited) ?order ?pre source ~init ~f =
  let acc = ref init in
  let st =
    search ?order source ~emit:(fun row ->
        let a, c = f !acc row in
        acc := a;
        c = `Stop)
  in
  let pre =
    match pre with
    | Some p -> p
    | None -> Array.make (Array.length source.vars) unassigned
  in
  run st budget pre;
  !acc

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
