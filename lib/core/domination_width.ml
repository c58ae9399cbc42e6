open Tgraphs
module Budget = Resource.Budget

(* The lazy Definition-2 test described in the interface: cheap bounds
   first, a core only where they cannot decide. The tw ≤ k answers,
   ctws and hom tests are memoised per family, so scanning k upward
   computes each core at most once. *)
type family = {
  members : Gtgraph.t array;
  within : (int * int, bool) Hashtbl.t;  (* (j, k): tw(members.(j)) <= k *)
  ctws : int option array;
  maps : (int * int, bool) Hashtbl.t;  (* (j, i): members.(j) -> members.(i) *)
}

let family_of members =
  let members = Array.of_list members in
  {
    members;
    within = Hashtbl.create 16;
    ctws = Array.make (Array.length members) None;
    maps = Hashtbl.create 16;
  }

let tw_within ?budget f j k =
  match Hashtbl.find_opt f.within (j, k) with
  | Some b -> b
  | None ->
      let b = Gtgraph.tw_at_most ?budget f.members.(j) k in
      Hashtbl.add f.within (j, k) b;
      b

let ctw ?budget f i =
  match f.ctws.(i) with
  | Some c -> c
  | None ->
      let c = Cores.ctw ?budget f.members.(i) in
      f.ctws.(i) <- Some c;
      c

let maps_to ?budget f j i =
  match Hashtbl.find_opt f.maps (j, i) with
  | Some b -> b
  | None ->
      let b = Gtgraph.maps_to ?budget f.members.(j) f.members.(i) in
      Hashtbl.add f.maps (j, i) b;
      b

let passes ?budget f k i =
  let known_within j =
    (match f.ctws.(j) with Some c -> c <= k | None -> false)
    || tw_within ?budget f j k
  in
  let others p =
    let rec go j =
      j < Array.length f.members && ((j <> i && p j) || go (j + 1))
    in
    go 0
  in
  known_within i
  || others (fun j -> known_within j && maps_to ?budget f j i)
  || ctw ?budget f i <= k
  || others (fun j ->
         (not (known_within j))
         && maps_to ?budget f j i
         && ctw ?budget f j <= k)

let dominated ?budget f k =
  let rec go i =
    i >= Array.length f.members || (passes ?budget f k i && go (i + 1))
  in
  go 0

let dominated_at ?budget family k =
  dominated ?budget (family_of family) k

(* Domination at k is monotone in k and holds at max tw, so the upward
   scan stops at the least level. *)
let level ?budget f =
  let rec scan k = if dominated ?budget f k then k else scan (k + 1) in
  scan 1

let domination_level ?budget family = level ?budget (family_of family)

let of_subtree ?budget forest subtree =
  domination_level ?budget (Wdpt.Children_assignment.gtg forest subtree)

let subtrees_of ?budget forest =
  List.concat
    (List.mapi
       (fun i tree ->
         List.map (fun st -> (i, st)) (Wdpt.Subtree.all ?budget tree))
       forest)

(* Proposition 5: on a UNION-free pattern (a one-tree forest) dw = bw,
   which needs one branch gtgraph per node instead of a GtG family per
   subtree. On a UNION of trees bw is not dw, so those keep the scan. *)
let of_forest ?(budget = Budget.unlimited) forest =
  Budget.with_phase budget "domination-width" @@ fun () ->
  match forest with
  | [ tree ] -> Branch_treewidth.of_tree ~budget tree
  | _ ->
      List.fold_left
        (fun acc (_, st) ->
          Budget.tick budget;
          max acc (of_subtree ~budget forest st))
        1
        (subtrees_of ~budget forest)

let at_most ?(budget = Budget.unlimited) forest k =
  Budget.with_phase budget "domination-width" @@ fun () ->
  match forest with
  | [ tree ] -> Branch_treewidth.at_most ~budget tree k
  | _ ->
      List.for_all
        (fun (_, st) ->
          Budget.tick budget;
          dominated_at ~budget (Wdpt.Children_assignment.gtg forest st) k)
        (subtrees_of ~budget forest)

let of_pattern ?budget p = of_forest ?budget (Wdpt.Pattern_forest.of_algebra p)

(* Conservative fallback when the exact computation is too expensive:
   dw(F) ≤ max ctw over GtG members ≤ max tw over members, and every
   member's pattern is a subgraph of its tree's full pattern, so the
   heuristic treewidth upper bound of each tree's whole Gaifman graph
   (existential variables only, which can only shrink it further) bounds
   them all. Polynomial: two elimination heuristics per tree. *)
let cheap_upper_bound forest =
  List.fold_left
    (fun acc tree ->
      let pat = Wdpt.Subtree.pat (Wdpt.Subtree.full tree) in
      let gaifman, _ = Gaifman.graph Rdf.Variable.Set.empty pat in
      let ub =
        if
          Graphtheory.Ugraph.n gaifman = 0 || Graphtheory.Ugraph.m gaifman = 0
        then 1
        else max 1 (Graphtheory.Treewidth.upper_bound gaifman)
      in
      max acc ub)
    1 forest

type profile = {
  subtree_members : int list;
  tree_index : int;
  gtg_ctws : int list;
  level : int;
}

let profile ?budget forest =
  List.map
    (fun (i, st) ->
      let f = family_of (Wdpt.Children_assignment.gtg forest st) in
      (* every ctw first: the level's scan then reads them from the memo *)
      let gtg_ctws = List.init (Array.length f.members) (ctw ?budget f) in
      {
        subtree_members = Wdpt.Subtree.members st;
        tree_index = i;
        gtg_ctws;
        level = level ?budget f;
      })
    (subtrees_of ?budget forest)
