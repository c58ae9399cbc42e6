open Rdf

type t = { s : Tgraph.t; x : Variable.Set.t }

let make s x =
  if not (Variable.Set.subset x (Tgraph.vars s)) then
    invalid_arg "Gtgraph.make: X must be a subset of vars(S)";
  { s; x }

let s t = t.s
let x t = t.x
let existential_vars t = Variable.Set.diff (Tgraph.vars t.s) t.x

let identity_pre t =
  Variable.Set.fold
    (fun v acc -> Variable.Map.add v (Term.Var v) acc)
    t.x Variable.Map.empty

let hom ?budget a b =
  if not (Variable.Set.equal a.x b.x) then
    invalid_arg "Gtgraph.hom: distinguished variable sets differ";
  Homomorphism.find ?budget ~pre:(identity_pre a) ~source:a.s ~target:b.s ()

let maps_to ?budget a b = Option.is_some (hom ?budget a b)

let hom_equivalent ?budget a b = maps_to ?budget a b && maps_to ?budget b a

let hom_to_graph t ~mu graph =
  Variable.Set.iter
    (fun v ->
      if not (Variable.Map.mem v mu) then
        invalid_arg "Gtgraph.hom_to_graph: µ does not cover X")
    t.x;
  Homomorphism.find ~pre:mu ~source:t.s ~target:(Graph.to_index graph) ()

let maps_to_graph t ~mu graph = Option.is_some (hom_to_graph t ~mu graph)

let subgraph a b = Variable.Set.equal a.x b.x && Tgraph.subset a.s b.s

let tw ?budget t =
  let gaifman, _ = Gaifman.graph t.x t.s in
  if Graphtheory.Ugraph.n gaifman = 0 || Graphtheory.Ugraph.m gaifman = 0 then 1
  else max 1 (Graphtheory.Treewidth.treewidth ?budget gaifman)

let tw_at_most ?budget t k =
  k >= 1
  &&
  let gaifman, _ = Gaifman.graph t.x t.s in
  Graphtheory.Ugraph.m gaifman = 0
  || Graphtheory.Treewidth.is_at_most ?budget gaifman k

let equal a b = Tgraph.equal a.s b.s && Variable.Set.equal a.x b.x

let pp ppf t =
  Fmt.pf ppf "(%a, {%a})" Tgraph.pp t.s
    Fmt.(list ~sep:comma Variable.pp)
    (Variable.Set.elements t.x)
