open Rdf
open Tgraphs

type support = (int * Subtree.t) list

let supp forest subtree =
  let target = Subtree.vars subtree in
  List.mapi (fun i tree -> (i, Subtree.with_vars tree target)) forest
  |> List.filter_map (fun (i, witness) ->
         Option.map (fun w -> (i, w)) witness)

type t = (int * Pattern_tree.node) list

(* For each supporting index, the options are: unassigned, or one of the
   witness subtree's children. *)
let of_support support =
  let options =
    List.map
      (fun (i, witness) ->
        None :: List.map (fun c -> Some (i, c)) (Subtree.children witness))
      support
  in
  let product =
    List.fold_left
      (fun acc opts ->
        List.concat_map (fun partial -> List.map (fun o -> o :: partial) opts) acc)
      [ [] ] options
  in
  product
  |> List.map (fun choices -> List.rev (List.filter_map Fun.id choices))
  |> List.filter (fun delta -> delta <> [])

let all forest subtree = of_support (supp forest subtree)

(* What every assignment of one subtree shares, computed once: building
   a pattern's index is the expensive step of S_∆. *)
type context = {
  pat : Tgraph.t;  (* pat(T) *)
  x : Variable.Set.t;  (* vars(T) *)
  forest_vars : Variable.Set.t;
}

let context forest subtree =
  let pat = Subtree.pat subtree in
  { pat; x = Tgraph.vars pat; forest_vars = Pattern_forest.vars forest }

(* The children's labels are renamed triple by triple and added to
   pat(T) at once, so S_∆ builds one index. *)
let s_delta_in forest c delta =
  let avoid = ref c.forest_vars in
  let renamed =
    List.concat_map
      (fun (i, child) ->
        let label = Pattern_tree.pat (List.nth forest i) child in
        let subst = Tgraph.renaming ~keep:c.x ~avoid:!avoid label in
        let triples =
          List.map
            (Triple.subst (fun v -> Variable.Map.find_opt v subst))
            (Tgraph.triples label)
        in
        avoid :=
          List.fold_left
            (fun acc t -> Variable.Set.union (Triple.vars t) acc)
            !avoid triples;
        triples)
      delta
  in
  Gtgraph.make (Tgraph.add_triples c.pat renamed) c.x

(* ∆ is valid when no unassigned supporting witness maps into S_∆. *)
let valid_in support c delta s_d =
  List.for_all
    (fun (j, witness) ->
      List.mem_assoc j delta
      || not (Gtgraph.maps_to (Gtgraph.make (Subtree.pat witness) c.x) s_d))
    support

let s_delta forest subtree delta =
  s_delta_in forest (context forest subtree) delta

let is_valid forest subtree delta =
  let c = context forest subtree in
  valid_in (supp forest subtree) c delta (s_delta_in forest c delta)

(* The valid assignments, each with its S_∆. *)
let valid_with_s forest subtree =
  let support = supp forest subtree and c = context forest subtree in
  List.filter_map
    (fun delta ->
      let s_d = s_delta_in forest c delta in
      if valid_in support c delta s_d then Some (delta, s_d) else None)
    (of_support support)

let valid forest subtree = List.map fst (valid_with_s forest subtree)

let gtg forest subtree = List.map snd (valid_with_s forest subtree)
