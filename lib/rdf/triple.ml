type t = { s : Term.t; p : Term.t; o : Term.t }

let make s p o = { s; p; o }

let terms t = [ t.s; t.p; t.o ]

let vars t =
  List.fold_left
    (fun acc term ->
      match term with
      | Term.Var v -> Variable.Set.add v acc
      | Term.Iri _ -> acc)
    Variable.Set.empty (terms t)

let iris t =
  List.fold_left
    (fun acc term ->
      match term with
      | Term.Iri i -> Iri.Set.add i acc
      | Term.Var _ -> acc)
    Iri.Set.empty (terms t)

let is_ground t = not (Term.is_var t.s || Term.is_var t.p || Term.is_var t.o)

let map f t = { s = f t.s; p = f t.p; o = f t.o }

let subst f =
  let apply = function
    | Term.Var v as term -> (
        match f v with Some term' -> term' | None -> term)
    | Term.Iri _ as term -> term
  in
  map apply

let equal a b = Term.equal a.s b.s && Term.equal a.p b.p && Term.equal a.o b.o

let compare a b =
  let c = Term.compare a.s b.s in
  if c <> 0 then c
  else
    let c = Term.compare a.p b.p in
    if c <> 0 then c else Term.compare a.o b.o

let hash = Hashtbl.hash

let pp ppf t = Fmt.pf ppf "(%a, %a, %a)" Term.pp t.s Term.pp t.p Term.pp t.o

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
