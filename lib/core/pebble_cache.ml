type stats = {
  hits : int;
  misses : int;
  compiled : int;
  families : int;
  evictions : int;
  unary_hits : int;
  unary_misses : int;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "pebble cache: %d hits, %d misses, %d games compiled, %d families, %d \
     verdicts evicted, unary domains %d reused / %d scanned"
    s.hits s.misses s.compiled s.families s.evictions s.unary_hits
    s.unary_misses

type t = {
  enc : Encoded.Encoded_graph.t;
  unary : Encoded.Encoded_pebble.unary_cache;
  lock : Mutex.t;  (* guards [unary], [compiled] and every node's games *)
  mutable compiled : int;
}

let create enc =
  {
    enc;
    unary = Encoded.Encoded_pebble.create_unary_cache ();
    lock = Mutex.create ();
    compiled = 0;
  }

let game t games ~k g =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  match Hashtbl.find_opt games k with
  | Some game -> game
  | None ->
      let game =
        Encoded.Encoded_pebble.compile ~unary:t.unary ~k:(k + 1) g t.enc
      in
      t.compiled <- t.compiled + 1;
      Hashtbl.add games k game;
      game

let run ?budget game mu =
  let before = Encoded.Encoded_pebble.stats_families_explored () in
  let verdict = Encoded.Encoded_pebble.run ?budget game ~mu in
  (verdict, Encoded.Encoded_pebble.stats_families_explored () - before)

let stats t =
  let unary_hits, unary_misses =
    Encoded.Encoded_pebble.unary_cache_stats t.unary
  in
  {
    hits = 0;
    misses = 0;
    compiled = t.compiled;
    families = 0;
    evictions = 0;
    unary_hits;
    unary_misses;
  }
