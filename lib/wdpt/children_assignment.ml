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

(* What every assignment of one subtree shares, computed once. pat(T)
   and the witnesses' patterns stay triple sets: no index of them is
   ever probed (see [valid_set]). *)
type context = {
  pat : Triple.Set.t;  (* pat(T) *)
  x : Variable.Set.t;  (* vars(T) *)
  forest_vars : Variable.Set.t;
  support : support;
  witnesses : (int * Triple.Set.t) list;  (* (j, pat(T^sp(j))) *)
}

let context forest subtree =
  let support = supp forest subtree in
  {
    pat = Subtree.pat_set subtree;
    x = Subtree.vars subtree;
    forest_vars = Pattern_forest.vars forest;
    support;
    witnesses = List.map (fun (j, w) -> (j, Subtree.pat_set w)) support;
  }

(* The triples of S_∆: the children's labels renamed triple by triple
   and added to pat(T). *)
let s_delta_set forest c delta =
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
        (* the renamed label's variables: kept ones, already avoided,
           and the fresh ones the substitution introduced *)
        avoid :=
          Variable.Map.fold
            (fun _ t acc ->
              match t with
              | Term.Var v -> Variable.Set.add v acc
              | Term.Iri _ -> acc)
            subst !avoid;
        triples)
      delta
  in
  Triple.Set.add_seq (List.to_seq renamed) c.pat

(* ∆ is valid when no unassigned supporting witness maps into S_∆. A
   witness's variables are exactly vars T, which a homomorphism of
   generalised t-graphs fixes, so it maps into S_∆ iff its triples are
   among S_∆'s: a subset test, and no index of S_∆ for a ∆ that fails. *)
let valid_set c delta s_set =
  List.for_all
    (fun (j, witness) ->
      List.mem_assoc j delta || not (Triple.Set.subset witness s_set))
    c.witnesses

let gtgraph c s_set = Gtgraph.make (Tgraph.of_set s_set) c.x

let s_delta forest subtree delta =
  let c = context forest subtree in
  gtgraph c (s_delta_set forest c delta)

let is_valid forest subtree delta =
  let c = context forest subtree in
  valid_set c delta (s_delta_set forest c delta)

(* The valid assignments, each with its S_∆. *)
let valid_with_s forest subtree =
  let c = context forest subtree in
  List.filter_map
    (fun delta ->
      let s_set = s_delta_set forest c delta in
      if valid_set c delta s_set then Some (delta, gtgraph c s_set) else None)
    (of_support c.support)

let valid forest subtree =
  let c = context forest subtree in
  List.filter
    (fun delta -> valid_set c delta (s_delta_set forest c delta))
    (of_support c.support)

let gtg forest subtree = List.map snd (valid_with_s forest subtree)
