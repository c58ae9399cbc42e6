open Rdf
open Tgraphs

(* As in Branch_treewidth.of_tree: ctw ≤ tw, so a node whose tw(S, X) is
   within the running maximum needs no core. *)
let width_in ?budget memo tree =
  List.fold_left
    (fun acc n ->
      match Wdpt.Pattern_tree.parent tree n with
      | None -> acc
      | Some p ->
          let interface =
            Variable.Set.inter
              (Wdpt.Pattern_tree.vars_of_node tree n)
              (Wdpt.Pattern_tree.vars_of_node tree p)
          in
          let g = Gtgraph.make (Wdpt.Pattern_tree.pat tree n) interface in
          if Gtgraph.tw_at_most ?budget g acc then acc
          else max acc (Cores.Memo.ctw ?budget memo g))
    1 (Wdpt.Pattern_tree.nodes tree)

let width_of_tree ?budget tree = width_in ?budget (Cores.Memo.create ()) tree

let width_of_forest ?budget forest =
  let memo = Cores.Memo.create () in
  List.fold_left (fun acc tree -> max acc (width_in ?budget memo tree)) 1 forest

let width_of_pattern ?budget p =
  width_of_forest ?budget (Wdpt.Pattern_forest.of_algebra p)
