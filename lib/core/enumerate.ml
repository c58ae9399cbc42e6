open Rdf
module Budget = Resource.Budget
module Encoded_hom = Encoded.Encoded_hom

type maximality = Plan_cache.maximality

type optimize = [ `Off | `On ]

let variables forest =
  Array.of_list (Variable.Set.elements (Wdpt.Pattern_forest.vars forest))

(* A tree's child joins, staged in tree shape: [join] streams the
   extensions of a parent row ({!Plan_cache.extensions}). *)
type node_join = {
  join : int array -> (int array -> unit) -> unit;
  fresh : int array;
  below : node_join array;
}

(* One node match, as the values of the slots its node introduces, and
   per child, the slots the child introduces and its alternatives below
   the match ([alts = []] when the child is left out). Children share
   only ancestor variables, so the answers below a match are the product
   of its children's alternatives: this form holds each node match
   once, and the product is only walked when emitting. *)
type branch = { vals : int array; kids : kid array }
and kid = { slots : int array; alts : branch list }

(* The branch of the live row [row] matching a node whose fresh slots
   are [fresh] and whose children are staged as [below]: each child's
   join runs on [row] while it is live, and only the fresh values are
   kept. *)
let rec branch fresh below row =
  let vals = Array.make (Array.length fresh) 0 in
  for i = 0 to Array.length fresh - 1 do
    vals.(i) <- row.(fresh.(i))
  done;
  let kids = Array.make (Array.length below) no_kid in
  for c = 0 to Array.length below - 1 do
    let nj = below.(c) in
    let alts = ref [] in
    nj.join row (fun ext -> alts := branch nj.fresh nj.below ext :: !alts);
    kids.(c) <- { slots = nj.fresh; alts = !alts }
  done;
  { vals; kids }

and no_kid = { slots = [||]; alts = [] }

(* The walk of the product: [out] is the answer being built, and
   [stack.(0 .. sp - 1)] the children still to choose an alternative
   for, the next on top. Between answers every slot outside the current
   choice is unassigned, so a left-out child leaves its whole subtree
   unbound. *)
type emitter = { out : int array; stack : kid array; sink : int array -> unit }

(* [emit e sp] emits every answer over [stack.(0 .. sp - 1)] and leaves
   those entries as it found them: each level overwrites only the slot
   it popped and the ones above, and puts its own back, whether it chose
   an alternative or left its child out. *)
let rec emit e sp =
  if sp = 0 then e.sink e.out
  else begin
    let k = e.stack.(sp - 1) in
    (match k.alts with
    | [] -> emit e (sp - 1)
    | alts ->
        emit_alts e sp k.slots alts;
        let out = e.out and slots = k.slots in
        for i = 0 to Array.length slots - 1 do
          out.(slots.(i)) <- Encoded_hom.unassigned
        done);
    e.stack.(sp - 1) <- k
  end

and emit_alts e sp slots = function
  | [] -> ()
  | b :: rest ->
      let out = e.out in
      for i = 0 to Array.length slots - 1 do
        out.(slots.(i)) <- b.vals.(i)
      done;
      let kids = b.kids in
      let n = Array.length kids in
      for j = 0 to n - 1 do
        e.stack.(sp - 1 + j) <- kids.(n - 1 - j)
      done;
      emit e (sp - 1 + n);
      emit_alts e sp slots rest

let rec nodes joins =
  Array.fold_left (fun acc nj -> acc + nodes nj.below) (Array.length joins) joins

(* The top-down walk of one tree (Pérez et al.): each root match is
   extended by each of a child's extensions, and the child is dropped
   when it has none, recursively. [sink] receives every answer of the
   tree once, as a live row over the tree's variable table. *)
let walk_tree ~budget ~maximality ~cache ~optimize tree graph sink =
  Budget.with_phase budget "enumerate" @@ fun () ->
  let order_of n =
    match optimize with
    | `Off -> None
    | `On -> Some (Plan_cache.node_decision ~budget cache graph tree n).order
  in
  let root = Wdpt.Pattern_tree.root in
  let root_source = Plan_cache.node_source cache graph tree root in
  let roots =
    Encoded_hom.fold ~budget ?order:(order_of root) root_source ~init:[]
      ~f:(fun acc h -> (Array.copy h :: acc, `Continue))
  in
  if roots <> [] then begin
    let rec stage n =
      Array.of_list
        (List.map
           (fun c ->
             let cj =
               Plan_cache.stage_child_join ?order:(order_of c) cache graph
                 maximality tree c
             in
             {
               join = Plan_cache.extensions ~budget cj;
               fresh = Plan_cache.fresh_slots cj;
               below = stage c;
             })
           (Wdpt.Pattern_tree.children tree n))
    in
    let joins = stage root in
    (* every pending child is a distinct node below the root *)
    let e =
      {
        out =
          Array.make
            (Array.length (Encoded_hom.variables root_source))
            Encoded_hom.unassigned;
        stack = Array.make (nodes joins + 1) no_kid;
        sink;
      }
    in
    let root_fresh = Array.of_list (Encoded_hom.own_slots root_source) in
    List.iter
      (fun r ->
        e.stack.(0) <- { slots = root_fresh; alts = [ branch root_fresh joins r ] };
        emit e 1)
      roots
  end

(* Rows of a UNION forest, deduplicated across trees. Every emitted row
   is charged once: a new one as a solution, a repeat as a tick. *)
module Rows = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash a = Array.fold_left (fun h x -> (h * 65599) + x) 0 a land max_int
end)

let iter_rows ?(budget = Budget.unlimited) ?(maximality = `Hom) ?cache
    ?(optimize = `Off) forest graph f =
  (* One plan cache across the whole forest: the trees share the
     store's encoding and unary candidate domains. *)
  let cache = match cache with Some c -> c | None -> Plan_cache.create () in
  let vars = variables forest in
  let row = Array.make (Array.length vars) Encoded_hom.unassigned in
  let seen =
    match forest with _ :: _ :: _ -> Some (Rows.create 64) | _ -> None
  in
  let rows = ref 0 and answers = ref 0 in
  let answer () =
    Budget.solution budget;
    incr answers;
    f row
  in
  let tree_sink tree =
    let tvars =
      Encoded_hom.variables
        (Plan_cache.node_source cache graph tree Wdpt.Pattern_tree.root)
    in
    (* both tables are sorted, and the forest's contains the tree's *)
    let j = ref 0 in
    let into =
      Array.map
        (fun v ->
          while not (Variable.equal vars.(!j) v) do incr j done;
          !j)
        tvars
    in
    Array.fill row 0 (Array.length row) Encoded_hom.unassigned;
    fun out ->
      incr rows;
      for i = 0 to Array.length into - 1 do
        row.(into.(i)) <- out.(i)
      done;
      match seen with
      | None -> answer ()
      | Some seen ->
          if Rows.mem seen row then Budget.tick budget
          else begin
            Rows.add seen (Array.copy row) ();
            answer ()
          end
  in
  List.iter
    (fun tree ->
      walk_tree ~budget ~maximality ~cache ~optimize tree graph
        (tree_sink tree))
    forest;
  Plan_cache.record_answers cache ~rows:!rows ~answers:!answers

let mapping_of dict vars row =
  let rec go i m =
    if i < 0 then Some m
    else
      let id = row.(i) in
      if id < 0 then go (i - 1) m
      else
        match Dictionary.term_of dict id with
        | Term.Iri iri -> go (i - 1) (Variable.Map.add vars.(i) iri m)
        | Term.Var _ -> None
  in
  go (Array.length row - 1) Variable.Map.empty

let solutions ?budget ?maximality ?cache ?optimize forest graph =
  let cache = match cache with Some c -> c | None -> Plan_cache.create () in
  let dict =
    Encoded.Encoded_graph.dictionary (Plan_cache.encoded cache graph)
  in
  let vars = variables forest in
  let acc = ref Sparql.Mapping.Set.empty in
  iter_rows ?budget ?maximality ~cache ?optimize forest graph (fun row ->
      Option.iter
        (fun mu -> acc := Sparql.Mapping.Set.add mu !acc)
        (mapping_of dict vars row));
  !acc

let count ?budget ?maximality ?cache ?optimize forest graph =
  let n = ref 0 in
  iter_rows ?budget ?maximality ?cache ?optimize forest graph (fun _ -> incr n);
  !n
