(* The segment-merge kernel: pure rank arithmetic that presents a base
   sorted permutation plus a set of added and deleted triples as one
   merged sorted flat view, without materializing the merge. No bytes,
   no mappings — [Storage] owns those; this module owns only the
   positional algebra, and ticks the resource budget once per composed
   delta entry so a pathological segment chain degrades loudly instead
   of hanging the load. *)

module E = Encoded.Encoded_graph

(* First index of [v] whose triple is >= [triple] in [perm] order
   ([perm]-sorted view). *)
let view_lower_bound v perm triple =
  let lo = ref 0 and hi = ref v.E.fn in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if E.compare_view v perm mid triple < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

let view_mem v perm triple =
  let i = view_lower_bound v perm triple in
  i < v.E.fn && E.compare_view v perm i triple = 0

(* Fold an ordered chain of (adds, dels) segments over a base membership
   predicate into one net delta: [adds] absent from the base, [dels]
   present in it, the two disjoint. Later segments win — a segment may
   re-add a triple an earlier one deleted (drops both) or delete an
   earlier segment's add (drops the add). *)
let compose ?(budget = Resource.Budget.unlimited) ~base_mem ~segments () =
  let state : (int * int * int, bool) Hashtbl.t = Hashtbl.create 64 in
  (* state maps a touched triple to its net liveness *)
  List.iter
    (fun (adds, dels) ->
      Array.iter
        (fun t ->
          Resource.Budget.tick budget;
          Hashtbl.replace state t false)
        dels;
      Array.iter
        (fun t ->
          Resource.Budget.tick budget;
          Hashtbl.replace state t true)
        adds)
    segments;
  let net_adds = ref [] and net_dels = ref [] in
  Hashtbl.iter
    (fun t live ->
      let in_base = base_mem t in
      if live && not in_base then net_adds := t :: !net_adds
      else if (not live) && in_base then net_dels := t :: !net_dels)
    state;
  (Array.of_list !net_adds, Array.of_list !net_dels)

(* The merged view of [base] ([perm]-sorted) with [adds] (absent from base)
   inserted and [dels] (present in base) suppressed.

   Precomputed per delta entry:
   - [del_pos.(d)]: the base positions of the deleted triples, sorted.
   - [add_at.(j)]: the merged position of the j-th add (in [perm] order):
     its survivor rank in the base (lower bound minus deletions before
     it) plus the j adds that precede it.

   A probe of position [i] ([fload i] or [fcompare i ...]) then needs
   only binary searches over the delta arrays, once per call: if [i] is
   some [add_at.(j)] the answer is that add; otherwise
   [i] names the q-th surviving base triple (q = i minus the adds before
   i), whose base position is recovered from [del_pos] — [del_pos.(d) -
   d] is non-decreasing, so "smallest d with del_pos.(d) > q + d" is a
   monotone predicate and the position is q + d. Probe cost O(log Δ) on
   top of the base view's own cost. *)
let merge ?(budget = Resource.Budget.unlimited) ~base ~perm ~adds ~dels () =
  let adds = Array.copy adds and dels = Array.copy dels in
  Array.sort (E.compare_in perm) adds;
  Array.sort (E.compare_in perm) dels;
  let n_adds = Array.length adds and n_dels = Array.length dels in
  let del_pos =
    Array.map
      (fun t ->
        Resource.Budget.tick budget;
        view_lower_bound base perm t)
      dels
  in
  Array.sort Int.compare del_pos;
  (* deletions strictly before base position [b] *)
  let dels_before b =
    let lo = ref 0 and hi = ref n_dels in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if del_pos.(mid) < b then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let add_at =
    Array.mapi
      (fun j t ->
        Resource.Budget.tick budget;
        let b = view_lower_bound base perm t in
        b - dels_before b + j)
      adds
  in
  let fn = base.E.fn - n_dels + n_adds in
  (* Merged position [i] as [-1 - j] for the j-th add, or as its base
     position. *)
  let resolve i =
    (* binary search add_at for i; exact hit -> that add, otherwise the
       search's lower bound counts the adds placed before position i *)
    let lo = ref 0 and hi = ref n_adds in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if add_at.(mid) < i then lo := mid + 1 else hi := mid
    done;
    if !lo < n_adds && add_at.(!lo) = i then -1 - !lo
    else
      let q = i - !lo in
      let lo = ref 0 and hi = ref n_dels in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if del_pos.(mid) <= q + mid then lo := mid + 1 else hi := mid
      done;
      q + !lo
  in
  let added = E.view_of_triples perm adds in
  let fload i b =
    let r = resolve i in
    if r < 0 then added.E.fload (-1 - r) b else base.E.fload r b
  in
  let fcompare i k1 k2 k3 =
    let r = resolve i in
    if r < 0 then added.E.fcompare (-1 - r) k1 k2 k3
    else base.E.fcompare r k1 k2 k3
  in
  { E.fn; fload; fcompare }
