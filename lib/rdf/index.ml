(* Each bucket carries its cardinality alongside the triples so that
   [match_count] answers partially-bound lookups in O(1) instead of
   materialising the bucket and walking it with [List.length]. *)
type bucket = { count : int; bucket_triples : Triple.t list }

type t = {
  epoch : int;
  set : Triple.Set.t;
  vars : Variable.Set.t;  (* gathered by the build's one pass *)
  by_s : (Term.t, bucket) Hashtbl.t;
  by_p : (Term.t, bucket) Hashtbl.t;
  by_o : (Term.t, bucket) Hashtbl.t;
  by_sp : (Term.t * Term.t, bucket) Hashtbl.t;
  by_so : (Term.t * Term.t, bucket) Hashtbl.t;
  by_po : (Term.t * Term.t, bucket) Hashtbl.t;
}

(* Monotone global stamp: every constructed index gets a fresh epoch, so
   epoch equality implies "the same store". Derived indexes (union,
   add_triples) count as mutations and carry new epochs — which is what
   the plan-level caches key their invalidation on. *)
let epoch_counter = ref 0

let epoch t = t.epoch

let push tbl key triple =
  let existing =
    try Hashtbl.find tbl key
    with Not_found -> { count = 0; bucket_triples = [] }
  in
  Hashtbl.replace tbl key
    {
      count = existing.count + 1;
      bucket_triples = triple :: existing.bucket_triples;
    }

let of_set set =
  let n = max 16 (Triple.Set.cardinal set) in
  let by_s = Hashtbl.create n
  and by_p = Hashtbl.create n
  and by_o = Hashtbl.create n
  and by_sp = Hashtbl.create n
  and by_so = Hashtbl.create n
  and by_po = Hashtbl.create n in
  let vars = ref Variable.Set.empty in
  let note = function
    | Term.Var v -> vars := Variable.Set.add v !vars
    | Term.Iri _ -> ()
  in
  Triple.Set.iter
    (fun triple ->
      note triple.Triple.s;
      note triple.Triple.p;
      note triple.Triple.o;
      push by_s triple.Triple.s triple;
      push by_p triple.Triple.p triple;
      push by_o triple.Triple.o triple;
      push by_sp (triple.Triple.s, triple.Triple.p) triple;
      push by_so (triple.Triple.s, triple.Triple.o) triple;
      push by_po (triple.Triple.p, triple.Triple.o) triple)
    set;
  incr epoch_counter;
  {
    epoch = !epoch_counter;
    set;
    vars = !vars;
    by_s;
    by_p;
    by_o;
    by_sp;
    by_so;
    by_po;
  }

let of_triples list = of_set (Triple.Set.of_list list)
let empty = of_set Triple.Set.empty
let triples t = Triple.Set.elements t.set
let to_set t = t.set
let cardinal t = Triple.Set.cardinal t.set
let mem t triple = Triple.Set.mem triple t.set
let union a b = of_set (Triple.Set.union a.set b.set)
let add_triples t list = of_set (Triple.Set.add_seq (List.to_seq list) t.set)

let find tbl key =
  match Hashtbl.find_opt tbl key with
  | Some b -> b.bucket_triples
  | None -> []

let find_count tbl key =
  match Hashtbl.find_opt tbl key with Some b -> b.count | None -> 0

let matching t ?s ?p ?o () =
  match s, p, o with
  | Some s, Some p, Some o ->
      let triple = Triple.make s p o in
      if Triple.Set.mem triple t.set then [ triple ] else []
  | Some s, Some p, None -> find t.by_sp (s, p)
  | Some s, None, Some o -> find t.by_so (s, o)
  | None, Some p, Some o -> find t.by_po (p, o)
  | Some s, None, None -> find t.by_s s
  | None, Some p, None -> find t.by_p p
  | None, None, Some o -> find t.by_o o
  | None, None, None -> triples t

let matching_scan t ?s ?p ?o () =
  let position_ok bound actual =
    match bound with None -> true | Some term -> Term.equal term actual
  in
  Triple.Set.fold
    (fun triple acc ->
      if
        position_ok s triple.Triple.s
        && position_ok p triple.Triple.p
        && position_ok o triple.Triple.o
      then triple :: acc
      else acc)
    t.set []

let match_count t ?s ?p ?o () =
  match s, p, o with
  | Some s, Some p, Some o ->
      if Triple.Set.mem (Triple.make s p o) t.set then 1 else 0
  | Some s, Some p, None -> find_count t.by_sp (s, p)
  | Some s, None, Some o -> find_count t.by_so (s, o)
  | None, Some p, Some o -> find_count t.by_po (p, o)
  | Some s, None, None -> find_count t.by_s s
  | None, Some p, None -> find_count t.by_p p
  | None, None, Some o -> find_count t.by_o o
  | None, None, None -> cardinal t

let terms t =
  Triple.Set.fold
    (fun triple acc ->
      List.fold_left (fun acc term -> Term.Set.add term acc) acc (Triple.terms triple))
    t.set Term.Set.empty

let vars t = t.vars

let iris t =
  Triple.Set.fold
    (fun triple acc -> Iri.Set.union (Triple.iris triple) acc)
    t.set Iri.Set.empty

let distinct_keys tbl =
  Hashtbl.fold (fun key _ acc -> key :: acc) tbl []

let subjects t = distinct_keys t.by_s
let predicates t = distinct_keys t.by_p
let objects t = distinct_keys t.by_o

let equal a b = Triple.Set.equal a.set b.set

let pp ppf t =
  Fmt.pf ppf "@[<v>{%a}@]" Fmt.(list ~sep:(any ";@ ") Triple.pp) (triples t)
