open Rdf
open Tgraphs

type node = int

type t = {
  labels : Tgraph.t array;
  parents : node array;
  child_lists : node list array;
}

let root = 0
let size t = Array.length t.labels
let nodes t = List.init (size t) Fun.id
let parent t n = if n = root then None else Some t.parents.(n)
let children t n = t.child_lists.(n)
let pat t n = t.labels.(n)
let vars_of_node t n = Tgraph.vars t.labels.(n)

let pat_all t = Array.fold_left Tgraph.union Tgraph.empty t.labels
let vars t =
  Array.fold_left
    (fun acc l -> Variable.Set.union acc (Tgraph.vars l))
    Variable.Set.empty t.labels

let branch t n =
  let rec up acc n =
    match parent t n with None -> acc | Some p -> up (p :: acc) p
  in
  up [] n

let depth t =
  let rec d n = 1 + List.fold_left (fun acc c -> max acc (d c)) (-1) (children t n) in
  if size t = 0 then 0 else d root

let check_variable_connectedness labels parents =
  (* For each variable, the nodes mentioning it must induce a connected
     subgraph: every non-root node mentioning v whose parent does not must
     be the unique "topmost" occurrence. *)
  let n = Array.length labels in
  let all_vars =
    Array.fold_left
      (fun acc s -> Variable.Set.union acc (Tgraph.vars s))
      Variable.Set.empty labels
  in
  Variable.Set.for_all
    (fun v ->
      let holds i = Variable.Set.mem v (Tgraph.vars labels.(i)) in
      let tops = ref 0 in
      for i = 0 to n - 1 do
        if holds i && (i = 0 || not (holds parents.(i))) then incr tops
      done;
      !tops <= 1)
    all_vars

let make ~labels ~parent =
  let n = Array.length labels in
  if n = 0 then invalid_arg "Pattern_tree.make: empty tree";
  if Array.length parent <> n then
    invalid_arg "Pattern_tree.make: arity mismatch";
  if parent.(0) <> -1 then invalid_arg "Pattern_tree.make: node 0 must be root";
  Array.iteri
    (fun i p ->
      if i > 0 && (p < 0 || p >= i) then
        invalid_arg
          "Pattern_tree.make: parents must precede children (topological ids)")
    parent;
  Array.iteri
    (fun i s ->
      if Tgraph.cardinal s = 0 then
        invalid_arg (Printf.sprintf "Pattern_tree.make: node %d has empty label" i))
    labels;
  if not (check_variable_connectedness labels parent) then
    invalid_arg "Pattern_tree.make: variable occurrences are not connected";
  let child_lists = Array.make n [] in
  for i = n - 1 downto 1 do
    child_lists.(parent.(i)) <- i :: child_lists.(parent.(i))
  done;
  { labels; parents = parent; child_lists }

let is_nr_normal_form t =
  List.for_all
    (fun n ->
      match parent t n with
      | None -> true
      | Some p ->
          not (Variable.Set.subset (vars_of_node t n) (vars_of_node t p)))
    (nodes t)

let nr_normal_form t =
  (* Work on mutable parallel lists, merging one offending node at a time;
     then rebuild with fresh topological ids. *)
  let labels = Array.copy t.labels in
  let parents = Array.copy t.parents in
  let alive = Array.make (size t) true in
  let live_parent n =
    let rec up p = if p = -1 || alive.(p) then p else up parents.(p) in
    up parents.(n)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for n = 1 to size t - 1 do
      if alive.(n) then begin
        let p = live_parent n in
        if p <> -1
           && Variable.Set.subset (Tgraph.vars labels.(n)) (Tgraph.vars labels.(p))
        then begin
          (* delete n; push its label down into each live descendant whose
             path to p runs through n. *)
          alive.(n) <- false;
          for c = n + 1 to size t - 1 do
            if alive.(c) && live_parent c = p then begin
              (* only children whose original chain passes through n *)
              let rec through x = x = n || (x <> -1 && x <> p && through parents.(x)) in
              if through parents.(c) then
                labels.(c) <- Tgraph.union labels.(c) labels.(n)
            end
          done;
          changed := true
        end
      end
    done
  done;
  let remaining = List.filter (fun n -> alive.(n)) (List.init (size t) Fun.id) in
  let fresh_of_old = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace fresh_of_old n i) remaining;
  let labels' = Array.of_list (List.map (fun n -> labels.(n)) remaining) in
  let parents' =
    Array.of_list
      (List.map
         (fun n ->
           let p = live_parent n in
           if p = -1 then -1 else Hashtbl.find fresh_of_old p)
         remaining)
  in
  make ~labels:labels' ~parent:parents'

let to_algebra t =
  let conj s =
    Sparql.Algebra.and_all (List.map Sparql.Algebra.triple (Tgraph.triples s))
  in
  let rec build n =
    List.fold_left
      (fun acc c -> Sparql.Algebra.opt acc (build c))
      (conj (pat t n))
      (children t n)
  in
  build root

let rename f t =
  let rename_tgraph s =
    Tgraph.of_triples
      (List.map
         (Triple.map (function
           | Term.Var v -> Term.Var (f v)
           | Term.Iri _ as term -> term))
         (Tgraph.triples s))
  in
  { t with labels = Array.map rename_tgraph t.labels }

let equal a b =
  size a = size b
  && Array.for_all2 Tgraph.equal a.labels b.labels
  && a.parents = b.parents

let pp ppf t =
  let rec node ppf n =
    Fmt.pf ppf "@[<v 2>%d: %a%a@]" n Tgraph.pp (pat t n)
      (fun ppf -> function
        | [] -> ()
        | cs -> Fmt.pf ppf "@ %a" Fmt.(list ~sep:sp node) cs)
      (children t n)
  in
  node ppf root
