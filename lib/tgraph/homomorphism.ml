open Rdf

type assignment = Term.t Variable.Map.t

let pp_assignment ppf a =
  let binding ppf (v, t) = Fmt.pf ppf "%a ↦ %a" Variable.pp v Term.pp t in
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma binding) (Variable.Map.bindings a)

let apply assignment = function
  | Term.Var v as term -> (
      match Variable.Map.find_opt v assignment with
      | Some value -> value
      | None -> term)
  | Term.Iri _ as term -> term

(* The bound value of a position under the current assignment: [Some term]
   if the position is determined (IRI or assigned variable), [None] if it is
   a wildcard. *)
let bound assignment = function
  | Term.Iri _ as t -> Some t
  | Term.Var v -> Variable.Map.find_opt v assignment

(* Try to extend [assignment] so that pattern triple [pat] maps onto target
   triple [img]. *)
let unify assignment pat img =
  let step acc (pattern_term, image_term) =
    match acc with
    | None -> None
    | Some assignment -> (
        match pattern_term with
        | Term.Iri _ ->
            if Term.equal pattern_term image_term then Some assignment else None
        | Term.Var v -> (
            match Variable.Map.find_opt v assignment with
            | Some value ->
                if Term.equal value image_term then Some assignment else None
            | None -> Some (Variable.Map.add v image_term assignment)))
  in
  List.fold_left step (Some assignment)
    (List.combine (Triple.terms pat) (Triple.terms img))

let candidates ~use_index target assignment pat =
  let lookup = if use_index then Index.matching else Index.matching_scan in
  lookup target
    ?s:(bound assignment pat.Triple.s)
    ?p:(bound assignment pat.Triple.p)
    ?o:(bound assignment pat.Triple.o)
    ()

let candidate_count target assignment pat =
  Index.match_count target
    ?s:(bound assignment pat.Triple.s)
    ?p:(bound assignment pat.Triple.p)
    ?o:(bound assignment pat.Triple.o)
    ()

(* Pick the remaining pattern with the fewest candidates (fail-first). *)
let pick_pattern target assignment = function
  | [] -> None
  | patterns ->
      let scored =
        List.map
          (fun pat -> (candidate_count target assignment pat, pat))
          patterns
      in
      let _, chosen =
        List.fold_left
          (fun (bc, bp) (c, p) -> if c < bc then (c, p) else (bc, bp))
          (List.hd scored) (List.tl scored)
      in
      Some (chosen, List.filter (fun p -> p != chosen) patterns)

let fold ?(budget = Resource.Budget.unlimited) ?(use_index = true)
    ?(pre = Variable.Map.empty) ~source ~target ~init ~f =
  let source_vars = Tgraph.vars source in
  let pre =
    Variable.Map.filter (fun v _ -> Variable.Set.mem v source_vars) pre
  in
  let patterns = Tgraph.triples source in
  let rec go assignment remaining acc =
    match pick_pattern target assignment remaining with
    | None -> f acc assignment
    | Some (pat, rest) ->
        Resource.Budget.tick budget;
        let images = candidates ~use_index target assignment pat in
        let rec try_images acc = function
          | [] -> (acc, `Continue)
          | img :: more -> (
              match unify assignment pat img with
              | None -> try_images acc more
              | Some assignment' -> (
                  match go assignment' rest acc with
                  | acc, `Stop -> (acc, `Stop)
                  | acc, `Continue -> try_images acc more))
        in
        try_images acc images
  in
  fst (go pre patterns init)

let find ?budget ?use_index ?pre ~source ~target () =
  fold ?budget ?use_index ?pre ~source ~target ~init:None
    ~f:(fun _ assignment -> (Some assignment, `Stop))

let exists ?budget ?use_index ?pre ~source ~target () =
  Option.is_some (find ?budget ?use_index ?pre ~source ~target ())

let count ?budget ?use_index ?pre ~source ~target () =
  fold ?budget ?use_index ?pre ~source ~target ~init:0 ~f:(fun n _ ->
      (n + 1, `Continue))

let all ?budget ?use_index ?pre ?limit ~source ~target () =
  let results =
    fold ?budget ?use_index ?pre ~source ~target ~init:[]
      ~f:(fun acc assignment ->
        let acc = assignment :: acc in
        match limit with
        | Some l when List.length acc >= l -> (acc, `Stop)
        | _ -> (acc, `Continue))
  in
  List.rev results
