module Budget = Resource.Budget
module H = Encoded.Encoded_hom

type decision = {
  node : int;
  order : int array;
  est_cards : float array;
  est_candidates : float;
}

let candidate_cap = 1e18

let compile ?(budget = Budget.unlimited) graph ~nvars ~bound ~node patterns =
  Budget.with_phase budget "optimize" @@ fun () ->
  let npat = Array.length patterns in
  let bnd = Array.make nvars false in
  for v = 0 to nvars - 1 do
    bnd.(v) <- bound v
  done;
  let order = Array.make npat 0 in
  let est_cards = Array.make npat 0. in
  let used = Array.make npat false in
  (* Greedy fail-first under bound-variable propagation: each step takes
     the cheapest remaining pattern given everything bound so far (the
     seed step is simply the most selective pattern outright), then marks
     its variables bound. Ties break toward the textual pattern order,
     matching the join's own tie-breaking. *)
  for step = 0 to npat - 1 do
    Budget.tick budget;
    let best = ref (-1) and best_cost = ref infinity in
    for i = 0 to npat - 1 do
      if not used.(i) then begin
        let c = Cost_model.estimate graph ~bound:(fun v -> bnd.(v)) patterns.(i) in
        if c < !best_cost then begin
          best := i;
          best_cost := c
        end
      end
    done;
    used.(!best) <- true;
    order.(step) <- !best;
    est_cards.(step) <- !best_cost;
    let s, p, o = patterns.(!best) in
    List.iter
      (function H.Var v -> bnd.(v) <- true | H.Const _ -> ())
      [ s; p; o ]
  done;
  (* Expected number of full extensions: the running product of the
     per-step cardinalities (capped to stay finite). Steps estimated
     below one triple shrink the product — a selective join usually fails
     before materialising anything. *)
  let est_candidates =
    Array.fold_left
      (fun acc c -> Float.min candidate_cap (acc *. c))
      1. est_cards
  in
  { node; order; est_cards; est_candidates }

let pp ppf d =
  Fmt.pf ppf "@[node %d: order [%a], ~%.1f candidate(s)@]" d.node
    Fmt.(array ~sep:(any ";") int)
    d.order d.est_candidates
