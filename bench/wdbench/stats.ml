(* Order statistics. Within a run, percentiles are nearest-rank — always
   a real sample — so the count of samples beyond one is exact. Across
   runs, quartiles follow Python's statistics.quantiles(n=4), the method
   the regression checks use. *)

type dist = { n : int; p25 : float; median : float; p75 : float }

(* A growable sample buffer, one per thread. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let sorted_of_samples ss =
  let a = Array.concat (List.map (fun s -> Array.sub s.data 0 s.len) ss) in
  Array.sort Float.compare a;
  a

let rank sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.rank: no samples";
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let beyond sorted v =
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 sorted

let dist sorted =
  {
    n = Array.length sorted;
    p25 = rank sorted 0.25;
    median = rank sorted 0.5;
    p75 = rank sorted 0.75;
  }

let quartiles values =
  let a = sorted_of_list values in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no values";
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m
