open Rdf
open Tgraphs
module NSet = Set.Make (Int)

type t = { tree : Pattern_tree.t; nodes : NSet.t }

let of_nodes tree node_list =
  let nodes = NSet.of_list node_list in
  if not (NSet.mem Pattern_tree.root nodes) then
    invalid_arg "Subtree.of_nodes: must contain the root";
  NSet.iter
    (fun n ->
      match Pattern_tree.parent tree n with
      | None -> ()
      | Some p ->
          if not (NSet.mem p nodes) then
            invalid_arg "Subtree.of_nodes: not closed under parents")
    nodes;
  { tree; nodes }

let root_only tree = { tree; nodes = NSet.singleton Pattern_tree.root }
let full tree = { tree; nodes = NSet.of_list (Pattern_tree.nodes tree) }

let tree t = t.tree
let members t = NSet.elements t.nodes
let mem t n = NSet.mem n t.nodes

let pat t =
  NSet.fold
    (fun n acc -> Tgraph.union acc (Pattern_tree.pat t.tree n))
    t.nodes Tgraph.empty

let vars t =
  NSet.fold
    (fun n acc -> Variable.Set.union acc (Pattern_tree.vars_of_node t.tree n))
    t.nodes Variable.Set.empty

let children t =
  List.filter
    (fun n ->
      (not (NSet.mem n t.nodes))
      && match Pattern_tree.parent t.tree n with
         | Some p -> NSet.mem p t.nodes
         | None -> false)
    (Pattern_tree.nodes t.tree)

let add_child t n =
  if List.mem n (children t) then { t with nodes = NSet.add n t.nodes }
  else invalid_arg "Subtree.add_child: not a child of the subtree"

let all ?(budget = Resource.Budget.unlimited) tree =
  (* Node ids are topological, so processing them in order means a node's
     parent has already been decided. The lattice has up to 2^nodes
     members, so the expansion itself is budgeted. *)
  let rec go acc = function
    | [] -> acc
    | n :: rest ->
        let acc' =
          if n = Pattern_tree.root then List.map (fun s -> NSet.add n s) acc
          else
            List.concat_map
              (fun s ->
                Resource.Budget.tick budget;
                if NSet.mem (Option.get (Pattern_tree.parent tree n)) s then
                  [ s; NSet.add n s ]
                else [ s ])
              acc
        in
        go acc' rest
  in
  go [ NSet.empty ] (Pattern_tree.nodes tree)
  |> List.map (fun nodes -> { tree; nodes })

(* Maximal growth from the root, adding children accepted by [admit]. *)
let grow tree admit =
  if not (admit Pattern_tree.root) then None
  else begin
    let current = ref (root_only tree) in
    let continue_ = ref true in
    while !continue_ do
      match List.find_opt admit (children !current) with
      | Some n ->
          current := add_child !current n
      | None -> continue_ := false
    done;
    Some !current
  end

let with_vars tree target_vars =
  let admit n =
    Variable.Set.subset (Pattern_tree.vars_of_node tree n) target_vars
  in
  match grow tree admit with
  | None -> None
  | Some t -> if Variable.Set.equal (vars t) target_vars then Some t else None

(* Membership is tested on dictionary ids through the graph's encoded
   store, so a mapped store's deferred term index is never forced. A
   term outside the dictionary makes its triple a non-member. *)
let matching tree graph mu =
  let dom = Sparql.Mapping.dom mu in
  let enc = Encoded.Encoded_graph.of_graph_cached graph in
  let id = Dictionary.find (Encoded.Encoded_graph.dictionary enc) in
  let mem triple =
    let { Triple.s; p; o } = Sparql.Mapping.apply mu triple in
    match (id s, id p, id o) with
    | Some s, Some p, Some o -> Encoded.Encoded_graph.mem enc (s, p, o)
    | _ -> false
  in
  let admit n =
    Variable.Set.subset (Pattern_tree.vars_of_node tree n) dom
    && List.for_all mem (Tgraph.triples (Pattern_tree.pat tree n))
  in
  match grow tree admit with
  | None -> None
  | Some t -> if Variable.Set.equal (vars t) dom then Some t else None

let equal a b = Pattern_tree.equal a.tree b.tree && NSet.equal a.nodes b.nodes

let pp ppf t =
  Fmt.pf ppf "subtree{%a}" Fmt.(list ~sep:comma int) (members t)
