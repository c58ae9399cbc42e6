open Rdf
module Budget = Resource.Budget
module Encoded_hom = Encoded.Encoded_hom

type maximality = Plan_cache.maximality

type optimize = [ `Off | `On ]

let variables forest =
  Array.of_list (Variable.Set.elements (Wdpt.Pattern_forest.vars forest))

(* A tree's child joins, staged in tree shape: [join] extends a parent
   row ({!Plan_cache.extensions}). *)
type node_join = {
  join : int array -> int array list;
  fresh : int array;
  below : node_join list;
}

(* One node match and, per child, the slots the child introduces and
   its extensions of the match ([] when the child is left out).
   Children share only ancestor variables, so the answers below a match
   are the product of its children's alternatives: this form holds each
   node match once, and the product is only walked when emitting. *)
type branch = { row : int array; kids : (int array * branch list) list }

let rec expand joins row =
  {
    row;
    kids =
      List.map (fun nj -> (nj.fresh, List.map (expand nj.below) (nj.join row)))
        joins;
  }

(* Walk the product of [pending]'s alternatives, writing each chosen
   match's fresh slots into [out]. Between calls every slot outside the
   current choice is unassigned, so a left-out child leaves its whole
   subtree unbound. *)
let rec emit out pending sink =
  match pending with
  | [] -> sink out
  | (_, []) :: rest -> emit out rest sink
  | (fresh, alts) :: rest ->
      List.iter
        (fun b ->
          Array.iter (fun s -> out.(s) <- b.row.(s)) fresh;
          emit out (b.kids @ rest) sink)
        alts;
      Array.iter (fun s -> out.(s) <- Encoded_hom.unassigned) fresh

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
      List.map
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
        (Wdpt.Pattern_tree.children tree n)
    in
    let joins = stage root in
    let out =
      Array.make
        (Array.length (Encoded_hom.variables root_source))
        Encoded_hom.unassigned
    in
    let root_fresh = Array.of_list (Encoded_hom.own_slots root_source) in
    List.iter (fun r -> emit out [ (root_fresh, [ expand joins r ]) ] sink) roots
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
      Array.iteri (fun i s -> row.(s) <- out.(i)) into;
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
