open Tgraphs
module Budget = Resource.Budget

let branch_gtgraph tree n =
  if n = Wdpt.Pattern_tree.root then
    invalid_arg "Branch_treewidth.branch_gtgraph: the root has no branch";
  let branch = Wdpt.Pattern_tree.branch tree n in
  let branch_pat =
    List.fold_left
      (fun acc m -> Tgraph.union acc (Wdpt.Pattern_tree.pat tree m))
      Tgraph.empty branch
  in
  let s = Tgraph.union (Wdpt.Pattern_tree.pat tree n) branch_pat in
  Gtgraph.make s (Tgraph.vars branch_pat)

(* The branch gtgraphs of the non-root nodes, each ticking the budget. *)
let branches budget tree =
  List.filter_map
    (fun n ->
      if n = Wdpt.Pattern_tree.root then None
      else begin
        Budget.tick budget;
        Some (branch_gtgraph tree n)
      end)
    (Wdpt.Pattern_tree.nodes tree)

(* ctw ≤ tw, since the core is a subgraph with the same X: a node whose
   tw(S, X) is within the running maximum (or within k) needs no core. *)
let of_tree ?(budget = Budget.unlimited) tree =
  List.fold_left
    (fun acc g ->
      if Gtgraph.tw_at_most ~budget g acc then acc
      else max acc (Cores.ctw ~budget g))
    1 (branches budget tree)

let at_most ?(budget = Budget.unlimited) tree k =
  List.for_all
    (fun g -> Gtgraph.tw_at_most ~budget g k || Cores.ctw ~budget g <= k)
    (branches budget tree)

let of_pattern ?budget p = of_tree ?budget (Wdpt.Translate.tree_of_algebra p)
