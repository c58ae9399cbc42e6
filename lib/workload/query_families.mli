(** Parameterised query families.

    The first two are the paper's own separating examples:
    - {!f_k} is the wdPF [F_k = {T1, T2, T3}] of Example 4 / Figure 2,
      with [dw(F_k) = 1] for every [k] (Example 5) while local
      tractability fails (node [n12] has local ctw [k − 1]);
    - {!t_prime_k} is the UNION-free family of Section 3.2 with
      [bw(T'_k) = 1] but local ctw [k − 1].

    The remaining families populate the width landscape (experiment T2)
    and the hardness-side benchmarks. *)

open Rdf

val kk : int -> string list -> Tgraphs.Tgraph.t
(** [kk k names]: the clique t-graph [K_k(?o1, …, ?ok) =
    {(?oi, r, ?oj) | i < j}] of Example 3, over the given variable names
    (length [k]). *)

val f_k : int -> Wdpt.Pattern_forest.t
(** Example 4's forest; requires [k ≥ 2]. *)

val class_t : Term.t
(** The class [c:T] of {!f_k_typed}. *)

val f_k_typed : int -> Wdpt.Pattern_forest.t
(** {!f_k} with every clique variable [?oi] of T1's clique child, and
    [?o] of T3's child, typed [(?, p:type, c:T)]; still [dw = 1]. The
    pebble game of the clique child then ranges over the members of
    [c:T] only, not over the whole dictionary. *)

val t_prime_k : int -> Wdpt.Pattern_tree.t
(** Section 3.2's tree: root [{(?y, r, ?y)}], one child
    [{(?y, r, ?o1)} ∪ K_k]; requires [k ≥ 2]. *)

val clique_child : int -> Wdpt.Pattern_tree.t
(** Root [{(?x, p, ?y)}] with one child [{(?y, r, ?o1)} ∪ K_k]: branch
    treewidth [k − 1] — a family of {e unbounded} width, the hard side of
    the dichotomy. Requires [k ≥ 2]. *)

val path_query : int -> Wdpt.Pattern_tree.t
(** Root [(?x0, p, ?x1)], then a chain of [n − 1] nested optional hops
    [(?xi, p, ?x(i+1))]. Width 1. *)

val star_query : int -> Wdpt.Pattern_tree.t
(** Root [(?x, p:c0, ?y0)] with [n] independent optional branches
    [(?x, p:ci, ?yi)]. Width 1. *)

val comb_query : int -> Wdpt.Pattern_tree.t
(** A spine of optional hops, each spine node also carrying an optional
    tooth. Width 1, many subtrees — a stress test for the subtree
    machinery. *)

val grid_query : rows:int -> cols:int -> Wdpt.Pattern_tree.t
(** Root [{(?x, p, ?y)}] with one child connecting [?y] to a
    [rows × cols] grid of fresh variables with distinct [right]/[down]
    predicates (so the grid is a core). Branch treewidth
    [min rows cols] — the family instantiating the hardness reduction
    (Section 4.2). *)

val grid_var : int -> int -> Variable.t
(** The variable at grid coordinate [(r, c)] used by {!grid_query}. *)

val random_wd_pattern :
  seed:int -> triples:int -> vars:int -> preds:int -> depth:int ->
  union:int -> Sparql.Algebra.t
(** A random well-designed pattern: [union] UNION-free branches, each a
    random tree of OPT-nested AND blocks with [triples] triple patterns
    over [vars] variables and [preds] predicates, nesting up to [depth].
    Well-designedness is ensured by construction (fresh variables below
    OPT) and asserted. *)
