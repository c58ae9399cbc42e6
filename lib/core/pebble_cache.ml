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
