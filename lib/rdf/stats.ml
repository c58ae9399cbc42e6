type predicate_stats = {
  triples : int;
  distinct_subjects : int;
  distinct_objects : int;
}

type t = {
  total : int;
  by_predicate : (Iri.t * predicate_stats) list;
  subjects : int;
  objects : int;
  dom : int;
}

let of_graph graph =
  let triples = Graph.triples graph in
  let preds = Hashtbl.create 16 in
  let all_subjects = ref Term.Set.empty and all_objects = ref Term.Set.empty in
  List.iter
    (fun t ->
      all_subjects := Term.Set.add t.Triple.s !all_subjects;
      all_objects := Term.Set.add t.Triple.o !all_objects;
      match t.Triple.p with
      | Term.Iri p ->
          let subjects, objects =
            Option.value
              ~default:(Term.Set.empty, Term.Set.empty)
              (Hashtbl.find_opt preds p)
          in
          Hashtbl.replace preds p
            (Term.Set.add t.Triple.s subjects, Term.Set.add t.Triple.o objects)
      | Term.Var _ -> ())
    triples;
  let by_predicate =
    Hashtbl.fold
      (fun p (subjects, objects) acc ->
        let count =
          List.length (Graph.matching graph ~p:(Term.Iri p) ())
        in
        ( p,
          {
            triples = count;
            distinct_subjects = Term.Set.cardinal subjects;
            distinct_objects = Term.Set.cardinal objects;
          } )
        :: acc)
      preds []
    |> List.sort (fun (_, a) (_, b) -> compare b.triples a.triples)
  in
  {
    total = List.length triples;
    by_predicate;
    subjects = Term.Set.cardinal !all_subjects;
    objects = Term.Set.cardinal !all_objects;
    dom = Iri.Set.cardinal (Graph.dom graph);
  }

let triples t = t.total
let predicates t = t.by_predicate
let predicate t p = List.assoc_opt p t.by_predicate
let distinct_subjects t = t.subjects
let distinct_objects t = t.objects
let dom_size t = t.dom

let selectivity_of ~total ~subjects ~objects ~predicate triple =
  if total = 0 then 0.
  else begin
    let base, subjects, objects =
      match triple.Triple.p with
      | Term.Iri p -> (
          match predicate p with
          | Some s ->
              ( float_of_int s.triples /. float_of_int total,
                max 1 s.distinct_subjects,
                max 1 s.distinct_objects )
          | None -> (0., 1, 1))
      | Term.Var _ -> (1., max 1 subjects, max 1 objects)
    in
    let s_factor =
      if Term.is_var triple.Triple.s then 1. else 1. /. float_of_int subjects
    in
    let o_factor =
      if Term.is_var triple.Triple.o then 1. else 1. /. float_of_int objects
    in
    min 1. (max 0. (base *. s_factor *. o_factor))
  end

let selectivity t =
  selectivity_of ~total:t.total ~subjects:t.subjects ~objects:t.objects
    ~predicate:(predicate t)

let estimated_matches t triple = selectivity t triple *. float_of_int t.total

let pp ppf t =
  Fmt.pf ppf "@[<v>%d triples, %d subjects, %d objects, |dom| = %d@ %a@]"
    t.total t.subjects t.objects t.dom
    Fmt.(
      list ~sep:sp (fun ppf (p, s) ->
          Fmt.pf ppf "%a: %d triples (%d subj, %d obj)" Iri.pp p s.triples
            s.distinct_subjects s.distinct_objects))
    t.by_predicate
