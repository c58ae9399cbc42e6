open Rdf

type t = Index.t

let of_triples = Index.of_triples
let of_set = Index.of_set
let to_set = Index.to_set
let empty = Index.empty
let union = Index.union

let union_all = function
  | [] -> empty
  | [ t ] -> t
  | ts ->
      Index.of_set
        (List.fold_left
           (fun acc t -> Triple.Set.union acc (Index.to_set t))
           Triple.Set.empty ts)

let add_triples = Index.add_triples
let triples = Index.triples
let cardinal = Index.cardinal
let mem = Index.mem

let subset a b = Triple.Set.subset (Index.to_set a) (Index.to_set b)
let proper_subset a b = subset a b && not (Index.equal a b)
let remove t triple = Index.of_set (Triple.Set.remove triple (Index.to_set t))

let vars = Index.vars
let iris = Index.iris

let apply f t = Index.of_triples (List.map (Triple.subst f) (triples t))

let renaming ~keep ~avoid s =
  let forbidden =
    ref (Variable.Set.union (vars s) (Variable.Set.union keep avoid))
  in
  let substitution = ref Variable.Map.empty in
  Variable.Set.iter
    (fun v ->
      if not (Variable.Set.mem v keep) then begin
        let fresh =
          Variable.fresh
            ~basis:v
            ~avoid:(fun candidate -> Variable.Set.mem candidate !forbidden)
        in
        forbidden := Variable.Set.add fresh !forbidden;
        substitution := Variable.Map.add v (Term.Var fresh) !substitution
      end)
    (vars s);
  !substitution

let rename_avoiding ~keep ~avoid s =
  let subst = renaming ~keep ~avoid s in
  (apply (fun v -> Variable.Map.find_opt v subst) s, subst)

let freeze_prefix = "urn:frozen:"

let freeze_term = function
  | Term.Var v -> Term.iri (freeze_prefix ^ Variable.to_string v)
  | Term.Iri _ as t -> t

let thaw_term = function
  | Term.Iri i as t ->
      let s = Iri.to_string i in
      let n = String.length freeze_prefix in
      if String.length s > n && String.sub s 0 n = freeze_prefix then
        Term.var (String.sub s n (String.length s - n))
      else t
  | Term.Var _ as t -> t

let freeze t =
  Graph.of_triples (List.map (Triple.map freeze_term) (triples t))

let equal = Index.equal
let pp = Index.pp
