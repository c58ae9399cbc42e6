module G = Encoded.Encoded_graph
module H = Encoded.Encoded_hom

let fmax1 n = float_of_int (max 1 n)

let estimate graph ~bound (s, p, o) =
  let const = function H.Const id -> Some id | H.Var _ -> None in
  let probe = function H.Const id -> id | H.Var _ -> G.unbound in
  let is_bound_var = function H.Var v -> bound v | H.Const _ -> false in
  let cp = const p in
  (* Exact base: the range count over the constant positions — two binary
     searches on the right sorted permutation, O(1) in the pattern. A
     constant absent from the dictionary is a negative sentinel whose
     range is empty, so impossible patterns estimate 0 with no special
     case. *)
  let base =
    float_of_int (G.match_count graph (probe s) (probe p) (probe o))
  in
  (* Per-position selectivity of the bound variables, under per-predicate
     uniformity when the predicate is a constant: a bound subject divides
     by the predicate's distinct subject count, a bound object by its
     distinct object count, a bound predicate by the store's distinct
     predicate count. *)
  let subj_div, obj_div =
    match cp with
    | Some pid when pid >= 0 ->
        let st = G.predicate_stats graph pid in
        (fmax1 st.G.distinct_subjects, fmax1 st.G.distinct_objects)
    | Some _ -> (1., 1.) (* absent predicate: base is 0 anyway *)
    | None ->
        (fmax1 (G.distinct_subjects graph), fmax1 (G.distinct_objects graph))
  in
  let factor =
    (if is_bound_var s then 1. /. subj_div else 1.)
    *. (if is_bound_var p then 1. /. fmax1 (G.distinct_predicates graph)
        else 1.)
    *. (if is_bound_var o then 1. /. obj_div else 1.)
  in
  base *. factor
