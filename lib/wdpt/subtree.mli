(** Subtrees of a wdPT: connected, root-containing subsets of nodes
    (Section 2.1). All subtrees contain the original root. *)

open Rdf
open Tgraphs

type t

val of_nodes : Pattern_tree.t -> Pattern_tree.node list -> t
(** Raises [Invalid_argument] unless the set contains the root and is
    closed under parents. *)

val root_only : Pattern_tree.t -> t
val full : Pattern_tree.t -> t

val tree : t -> Pattern_tree.t
val members : t -> Pattern_tree.node list
(** Sorted ascending. *)

val mem : t -> Pattern_tree.node -> bool

val pat : t -> Tgraph.t
(** [pat(T')]: union of member labels, built as one index. *)

val pat_set : t -> Triple.Set.t
(** The triples of [pat(T')], with no index built. *)

val vars : t -> Variable.Set.t

val children : t -> Pattern_tree.node list
(** The children of the subtree: nodes outside it whose parent is in it. *)

val add_child : t -> Pattern_tree.node -> t
(** Raises [Invalid_argument] if the node is not a child of the subtree. *)

val all : ?budget:Resource.Budget.t -> Pattern_tree.t -> t list
(** Every subtree (exponentially many — query-sized trees only). *)

val with_vars : Pattern_tree.t -> Variable.Set.t -> t option
(** The unique subtree [T'] with [vars(T') = V], when it exists. Found by
    maximal growth: NR normal form guarantees uniqueness. *)

val matching : Pattern_tree.t -> Graph.t -> Sparql.Mapping.t -> t option
(** [T^µ]: the unique subtree such that [µ] is a homomorphism from
    [pat(T^µ)] to [G] with [vars(T^µ) = dom(µ)] — the subtree the
    evaluation algorithms of Section 3.1 search for. Triple membership is
    tested on dictionary ids through
    {!Encoded.Encoded_graph.of_graph_cached}, so a registered store's
    deferred term index is never forced. *)

val equal : t -> t -> bool
val pp : t Fmt.t
