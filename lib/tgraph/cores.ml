open Rdf
module Budget = Resource.Budget

(* An endomorphism of (S, X) into S \ {t} for some t ∈ S witnesses that
   (S, X) is not a core; its image is a strictly smaller equivalent
   subgraph. *)
let shrinking_endomorphism ?(budget = Budget.unlimited) g =
  let s = Gtgraph.s g in
  let pre = Gtgraph.identity_pre g in
  let rec try_triples = function
    | [] -> None
    | t :: rest -> (
        Budget.tick budget;
        let target = Tgraph.remove s t in
        match Homomorphism.find ~budget ~pre ~source:s ~target () with
        | Some h -> Some h
        | None -> try_triples rest)
  in
  try_triples (Tgraph.triples s)

let image g h =
  let s = Gtgraph.s g in
  let mapped =
    List.map (Triple.map (Homomorphism.apply h)) (Tgraph.triples s)
  in
  Gtgraph.make (Tgraph.of_triples mapped) (Gtgraph.x g)

let is_core ?budget g = Option.is_none (shrinking_endomorphism ?budget g)

let core ?(budget = Budget.unlimited) g =
  Budget.with_phase budget "core" @@ fun () ->
  let rec shrink g =
    match shrinking_endomorphism ~budget g with
    | None -> g
    | Some h -> shrink (image g h)
  in
  shrink g

let ctw ?(budget = Budget.unlimited) g = Gtgraph.tw ~budget (core ~budget g)

module Memo = struct
  module Key = Map.Make (struct
    type t = Variable.Set.t * Triple.Set.t

    let compare (x, s) (x', s') =
      let c = Variable.Set.compare x x' in
      if c <> 0 then c else Triple.Set.compare s s'
  end)

  type t = { mutable ctws : int Key.t }

  let create () = { ctws = Key.empty }

  (* tw ≤ 1 settles ctw = 1 (ctw ≤ tw, and both are at least 1) without
     a core. *)
  let ctw ?(budget = Budget.unlimited) m g =
    let key = (Gtgraph.x g, Index.to_set (Gtgraph.s g)) in
    match Key.find_opt key m.ctws with
    | Some c -> c
    | None ->
        let c = if Gtgraph.tw_at_most ~budget g 1 then 1 else ctw ~budget g in
        m.ctws <- Key.add key c m.ctws;
        c
end
