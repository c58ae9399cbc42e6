(* Every input of every workload, derived from the seed alone: the data
   files, the request pools and streams, the frontier list and the write
   batches. The engine only ever sees what this module writes out.

   Two choices keep metrics comparable across seeds. The University data
   has a fixed shape (every department has the same number of professors,
   courses and students; every student takes exactly three courses) and
   fixed-width names, so the seed moves edges, not sizes: store bytes,
   batch bytes and per-query work are the same for every seed. And the
   Zipf rank of each hot query is fixed; the seed only picks the
   constants, the spelling and the order of requests. *)

open Rdf

type scale = Full | Smoke

(* ------------------------------------------------------------------ *)
(* University data                                                      *)
(* ------------------------------------------------------------------ *)

let depts_per_uni = 4
let profs_per_dept = 6
let courses_per_dept = 12
let students_per_dept = 40
let emails_per_dept = 4
let courses_per_student = 3
let courses_per_prof = 2

let universities = function Full -> 40 | Smoke -> 4

let uni u = Printf.sprintf "uni:%02d" u
let dept u d = Printf.sprintf "dept:%02d_%d" u d
let prof u d f = Printf.sprintf "prof:%02d_%d_%d" u d f
let course u d c = Printf.sprintf "course:%02d_%d_%02d" u d c
let student u d s = Printf.sprintf "student:%02d_%d_%02d" u d s
let mailbox u d f = Printf.sprintf "mailto:prof_%02d_%d_%d" u d f

type triple = string * string * string

(* [k] distinct values of [0, n), in random order. *)
let sample_distinct st n k =
  let a = Array.init n Fun.id in
  for i = 0 to k - 1 do
    let j = i + Random.State.int st (n - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 k

type university = {
  unis : int;
  base : triple list;  (* every triple except takesCourse *)
  takes : int array array array array;
      (* [takes.(u).(d).(s)]: course indices of student s of dept (u, d) *)
}

let university ~seed scale =
  let st = Random.State.make [| seed; 1 |] in
  let unis = universities scale in
  let acc = ref [] in
  let add s p o = acc := (s, p, o) :: !acc in
  let takes =
    Array.init unis (fun u ->
        add (uni u) "u:type" "c:University";
        Array.init depts_per_uni (fun d ->
            add (dept u d) "u:type" "c:Department";
            add (dept u d) "u:subOrgOf" (uni u);
            for c = 0 to courses_per_dept - 1 do
              add (course u d c) "u:type" "c:Course"
            done;
            let mailed = sample_distinct st profs_per_dept emails_per_dept in
            for f = 0 to profs_per_dept - 1 do
              add (prof u d f) "u:type" "c:Professor";
              add (prof u d f) "u:worksFor" (dept u d);
              Array.iter
                (fun c -> add (prof u d f) "u:teacherOf" (course u d c))
                (sample_distinct st courses_per_dept courses_per_prof);
              if Array.mem f mailed then
                add (prof u d f) "u:email" (mailbox u d f)
            done;
            Array.init students_per_dept (fun s ->
                add (student u d s) "u:type" "c:Student";
                add (student u d s) "u:memberOf" (dept u d);
                add (student u d s) "u:advisor"
                  (prof u d (Random.State.int st profs_per_dept));
                sample_distinct st courses_per_dept courses_per_student)))
  in
  { unis; base = List.rev !acc; takes }

let takes_triples w =
  let acc = ref [] in
  Array.iteri
    (fun u ds ->
      Array.iteri
        (fun d ss ->
          Array.iteri
            (fun s cs ->
              Array.iter
                (fun c ->
                  acc := (student u d s, "u:takesCourse", course u d c) :: !acc)
                cs)
            ss)
        ds)
    w.takes;
  List.rev !acc

let university_triples w = w.base @ takes_triples w

(* Reads touch the first half of the universities and writes the second
   half; no query path crosses a university, so answers to the read pool
   hold for every store version the write stream produces. *)
let read_unis w = w.unis / 2

(* ------------------------------------------------------------------ *)
(* Query templates and spellings                                        *)
(* ------------------------------------------------------------------ *)

(* A group is the body of [{ ... }]: leading triples joined by AND, then
   OPTIONAL groups. "$C" is the constant slot. *)
type item = T of string * string * string | Optional of item list

type kind = Prof | Student | Dept | Uni

type template = { tname : string; kind : kind; body : item list }

let t s p o = T (s, p, o)

(* Point lookups: one constant, a handful of answers, and every triple
   pattern either bound by the constant or over a predicate with at most
   a few thousand triples, so the reference evaluator stays cheap. *)
let point_templates =
  [
    { tname = "prof-profile"; kind = Prof;
      body = [ t "$C" "u:worksFor" "?d"; Optional [ t "$C" "u:email" "?m" ] ] };
    { tname = "prof-coteachers"; kind = Prof;
      body = [ t "$C" "u:teacherOf" "?c"; Optional [ t "?p" "u:teacherOf" "?c" ] ] };
    { tname = "student-advisor"; kind = Student;
      body =
        [ t "$C" "u:advisor" "?p"; t "?p" "u:worksFor" "?d";
          Optional [ t "?p" "u:email" "?m" ] ] };
    { tname = "student-teachers"; kind = Student;
      body = [ t "$C" "u:takesCourse" "?c"; Optional [ t "?p" "u:teacherOf" "?c" ] ] };
    { tname = "student-university"; kind = Student;
      body = [ t "$C" "u:memberOf" "?d"; t "?d" "u:subOrgOf" "?u" ] };
    { tname = "dept-faculty"; kind = Dept;
      body = [ t "$C" "u:subOrgOf" "?u"; t "?p" "u:worksFor" "$C" ] };
    { tname = "prof-advisees"; kind = Prof;
      body = [ t "?s" "u:advisor" "$C"; t "$C" "u:worksFor" "?d" ] };
    { tname = "dept-mail"; kind = Dept;
      body = [ t "?p" "u:worksFor" "$C"; Optional [ t "?p" "u:email" "?m" ] ] };
    { tname = "prof-card"; kind = Prof;
      body =
        [ t "$C" "u:type" "c:Professor"; t "$C" "u:teacherOf" "?c";
          Optional [ t "$C" "u:email" "?m" ] ] };
    { tname = "student-advisor-card"; kind = Student;
      body =
        [ t "$C" "u:advisor" "?p"; Optional [ t "?p" "u:email" "?m" ];
          Optional [ t "?p" "u:teacherOf" "?c" ] ] };
    { tname = "student-card"; kind = Student;
      body =
        [ t "$C" "u:type" "c:Student"; t "$C" "u:memberOf" "?d";
          Optional [ t "$C" "u:advisor" "?p"; Optional [ t "?p" "u:email" "?m" ] ] ] };
    { tname = "dept-teaching"; kind = Dept;
      body = [ t "?p" "u:worksFor" "$C"; t "?p" "u:teacherOf" "?c" ] };
  ]

(* Department- and university-scoped OPTIONAL queries: tens to hundreds
   of answers each. *)
let scoped_templates =
  [
    { tname = "dept-roster"; kind = Dept;
      body = [ t "?s" "u:memberOf" "$C"; Optional [ t "?s" "u:advisor" "?a" ] ] };
    { tname = "dept-transcripts"; kind = Dept;
      body =
        [ t "?s" "u:memberOf" "$C"; t "?s" "u:takesCourse" "?c";
          Optional [ t "?p" "u:teacherOf" "?c" ] ] };
    { tname = "uni-faculty"; kind = Uni;
      body =
        [ t "?d" "u:subOrgOf" "$C"; t "?p" "u:worksFor" "?d";
          Optional [ t "?p" "u:teacherOf" "?c" ]; Optional [ t "?p" "u:email" "?m" ] ] };
    { tname = "uni-students"; kind = Uni;
      body =
        [ t "?d" "u:subOrgOf" "$C"; t "?s" "u:memberOf" "?d";
          Optional [ t "?s" "u:advisor" "?a" ] ] };
  ]

let rec map_items f = List.map (function
  | T (s, p, o) -> T (f s, f p, f o)
  | Optional g -> Optional (map_items f g))

(* Reverse the leading run of triples: AND is commutative, so this is
   the same query; anything after the first OPTIONAL keeps its place. *)
let reorder items =
  let rec split acc = function
    | (T _ as x) :: rest -> split (x :: acc) rest
    | rest -> (acc, rest)
  in
  let lead, rest = split [] items in
  lead @ rest

let rename suffix =
  map_items (fun s -> if s.[0] = '?' then s ^ suffix else s)

let rec render_group items =
  "{ "
  ^ String.concat " "
      (List.map
         (function
           | T (s, p, o) -> Printf.sprintf "%s %s %s ." s p o
           | Optional g -> "OPTIONAL " ^ render_group g)
         items)
  ^ " }"

(* Three spellings that canonicalize to one plan: as written, with the
   leading conjuncts reversed (or, for a single leading triple, another
   alpha-renaming), and alpha-renamed. *)
let spellings constant body =
  let body = map_items (fun s -> if s = "$C" then constant else s) body in
  let lead = List.length (List.filter (function T _ -> true | _ -> false) body) in
  let second = if lead > 1 then reorder body else rename "2" body in
  List.map render_group [ body; second; rename "1" body ]

let entity st ~unis kind =
  let u = Random.State.int st unis and d = Random.State.int st depts_per_uni in
  match kind with
  | Prof -> prof u d (Random.State.int st profs_per_dept)
  | Student -> student u d (Random.State.int st students_per_dept)
  | Dept -> dept u d
  | Uni -> uni u

(* ------------------------------------------------------------------ *)
(* Request pools and streams                                            *)
(* ------------------------------------------------------------------ *)

type pool = {
  texts : string array;
  stream : int array;  (* request i sends texts.(stream.(i mod length)) *)
}

let stream_length = function Full -> 1 lsl 17 | Smoke -> 4096

(* Zipf rank of every hot query, most frequent first. Fixed, so every
   seed sends the same mix. The scoped queries are the tail — about 8% of
   requests — so p50 and p90 fall among the point lookups and p99 inside
   the scoped queries. *)
let hot_order =
  List.init (List.length point_templates) (fun i -> `P i)
  @ List.init (List.length scoped_templates) (fun i -> `S i)

let zipf_cdf n =
  let w = Array.init n (fun i -> 1. /. float (i + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let draw_cdf st cdf =
  let x = Random.State.float st 1. in
  let rec go i = if i >= Array.length cdf - 1 || x < cdf.(i) then i else go (i + 1) in
  go 0

let hot_pool ~seed scale w =
  let st = Random.State.make [| seed; 2 |] in
  let unis = read_unis w in
  let texts =
    List.concat_map
      (fun r ->
        let tpl =
          match r with
          | `P i -> List.nth point_templates i
          | `S i -> List.nth scoped_templates i
        in
        spellings (entity st ~unis tpl.kind) tpl.body)
      hot_order
  in
  let cdf = zipf_cdf (List.length hot_order) in
  {
    texts = Array.of_list texts;
    stream =
      Array.init (stream_length scale) (fun _ ->
          (3 * draw_cdf st cdf) + Random.State.int st 3);
  }

let cold_pool_size = function Full -> 1500 | Smoke -> 120

(* The point templates with constants drawn uniformly over every
   professor, student and department: far more distinct texts than the
   server's 64-entry plan cache holds. *)
let cold_pool ~seed scale w =
  let st = Random.State.make [| seed; 3 |] in
  let templates = Array.of_list point_templates in
  let seen = Hashtbl.create 4096 and texts = ref [] in
  while Hashtbl.length seen < cold_pool_size scale do
    let tpl = templates.(Random.State.int st (Array.length templates)) in
    let spelled = spellings (entity st ~unis:w.unis tpl.kind) tpl.body in
    let text = List.nth spelled (Random.State.int st 3) in
    if not (Hashtbl.mem seen text) then begin
      Hashtbl.add seen text ();
      texts := text :: !texts
    end
  done;
  let texts = Array.of_list (List.rev !texts) in
  let n = Array.length texts in
  { texts; stream = Array.init (stream_length scale) (fun _ -> Random.State.int st n) }

(* ------------------------------------------------------------------ *)
(* Write batches                                                        *)
(* ------------------------------------------------------------------ *)

type batch = {
  adds : triple list;
  dels : triple list;
  probe : string;  (* ground query: one solution once the batch is visible *)
}

let batch_count = function Full -> 60 | Smoke -> 6
let compact_every = function Full -> 6 | Smoke -> 3
let changes_per_batch = 25

(* Each batch moves [changes_per_batch] distinct students of the write
   half from one of their courses to one they do not take: 25 deletes of
   present triples and 25 adds of absent ones, no new terms. The store
   keeps its size and dictionary, so segment and compacted-base bytes
   are the same for every seed. *)
let university_batches ~seed scale w =
  let st = Random.State.make [| seed; 4 |] in
  let first = read_unis w in
  let per_uni = depts_per_uni * students_per_dept in
  let population = (w.unis - first) * per_uni in
  let takes = Array.map (Array.map (Array.map Array.copy)) w.takes in
  List.init (batch_count scale) (fun _ ->
      let movers = sample_distinct st population changes_per_batch in
      let moves =
        Array.to_list movers
        |> List.map (fun i ->
               let u = first + (i / per_uni) in
               let d = i mod per_uni / students_per_dept in
               let s = i mod students_per_dept in
               let cs = takes.(u).(d).(s) in
               let slot = Random.State.int st courses_per_student in
               let fresh =
                 let rec go () =
                   let c = Random.State.int st courses_per_dept in
                   if Array.mem c cs then go () else c
                 in
                 go ()
               in
               let old = cs.(slot) in
               cs.(slot) <- fresh;
               let who = student u d s in
               ((who, "u:takesCourse", course u d fresh),
                (who, "u:takesCourse", course u d old)))
      in
      let adds = List.map fst moves and dels = List.map snd moves in
      let s, p, o = List.hd adds in
      { adds; dels; probe = Printf.sprintf "{ %s %s %s . }" s p o })

(* ------------------------------------------------------------------ *)
(* The frontier list                                                    *)
(* ------------------------------------------------------------------ *)

(* Each instance lives under its own prefix, so one store holds them all
   and no query reaches another's triples. Query_families writes its
   predicates as p:NAME; they are moved to PREFIX:NAME. *)
type frontier_query = { fname : string; text : string }

let rec map_iris f = function
  | Sparql.Algebra.Triple tr -> Sparql.Algebra.Triple (Triple.map f tr)
  | And (a, b) -> And (map_iris f a, map_iris f b)
  | Opt (a, b) -> Opt (map_iris f a, map_iris f b)
  | Union (a, b) -> Union (map_iris f a, map_iris f b)
  | Filter (a, c) -> Filter (map_iris f a, c)
  | Select (vs, a) -> Select (vs, map_iris f a)

let reprefix prefix forest =
  Wdpt.Pattern_forest.to_algebra forest
  |> map_iris (function
       | Term.Iri i ->
           let s = Iri.to_string i in
           Term.iri (prefix ^ String.sub s 1 (String.length s - 1))
       | v -> v)
  |> Sparql.Printer.to_string

(* How hard a frontier query is depends sharply on its graph (one
   clique_child instance runs 5 ms on one random tournament and 450 ms on
   another), and even on how its nodes are named, which orders their
   dictionary ids (clique_child5 ran 230 ms under three random
   relabellings and 305 ms under a fourth). So every frontier graph is one
   fixed random graph per instance, and the seed only tags its node
   names, in 16 hex digits: the names keep their length, and sort against
   every other term of the store as they do under any other seed, so
   every seed gets the same store under other names, and the same work. *)
let node_name prefix kind ~seed i = Printf.sprintf "%s:%s%016x_%03d" prefix kind seed i

(* A tournament on [n] nodes plus the anchor edge the f_k and
   clique_child roots match, as in Graph_families.tournament_instance. *)
let tournament ~seed prefix n =
  let shape = Random.State.make [| n; Hashtbl.hash prefix |] in
  let node = node_name prefix "t" ~seed in
  let acc = ref [ (prefix ^ ":anchor", prefix ^ ":p", node 0) ] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a, b = if Random.State.bool shape then (i, j) else (j, i) in
      acc := (node a, prefix ^ ":r", node b) :: !acc
    done
  done;
  List.rev !acc

(* Width-1 shapes run on a random graph with out-degree [deg] on each of
   the predicates they use. *)
let shape_graph ~seed prefix ~nodes ~deg preds =
  let st = Random.State.make [| nodes; Hashtbl.hash prefix |] in
  let node = node_name prefix "n" ~seed in
  List.concat_map
    (fun pr ->
      List.concat
        (List.init nodes (fun i ->
             Array.to_list (sample_distinct st nodes deg)
             |> List.map (fun j -> (node i, prefix ^ ":" ^ pr, node j)))))
    preds

type frontier = { fdata : triple list; queries : frontier_query list }

module Q = Workload.Query_families

(* Fifteen queries from both sides of the dichotomy. With fifteen
   equally frequent queries, p50, p90 and p99 fall inside the blocks of
   samples of the 8th, 14th and 15th slowest query rather than on a
   boundary between two; here those are comb3, f8 and f10. The
   tournaments are small enough for the reference evaluator to finish
   well inside its 20 s budget on f10, whose clique child it joins
   triple by triple. *)
let frontier_spec = function
  | Full ->
      [ ("f4", "fd", `Tour 8, Q.f_k 4); ("f6", "fa", `Tour 8, Q.f_k 6);
        ("f8", "fb", `Tour 6, Q.f_k 8); ("f10", "fc", `Tour 5, Q.f_k 10);
        ("clique_child3", "cc", `Tour 8, [ Q.clique_child 3 ]);
        ("clique_child4", "ca", `Tour 8, [ Q.clique_child 4 ]);
        ("clique_child5", "cb", `Tour 8, [ Q.clique_child 5 ]);
        ("comb3", "wa", `Shape, [ Q.comb_query 3 ]);
        ("comb4", "wa", `Shape, [ Q.comb_query 4 ]);
        ("path4", "wa", `Shape, [ Q.path_query 4 ]);
        ("path5", "wa", `Shape, [ Q.path_query 5 ]);
        ("path6", "wa", `Shape, [ Q.path_query 6 ]);
        ("star4", "wa", `Shape, [ Q.star_query 4 ]);
        ("star5", "wa", `Shape, [ Q.star_query 5 ]);
        ("star6", "wa", `Shape, [ Q.star_query 6 ]) ]
  | Smoke ->
      [ ("f4", "fa", `Tour 6, Q.f_k 4);
        ("clique_child3", "ca", `Tour 6, [ Q.clique_child 3 ]);
        ("comb3", "wa", `Shape, [ Q.comb_query 3 ]) ]

let shape_nodes = function Full -> 30 | Smoke -> 12

let frontier ~seed scale =
  let spec = frontier_spec scale in
  let instances = List.sort_uniq compare (List.map (fun (_, p, shape, _) -> (p, shape)) spec) in
  {
    fdata =
      List.concat_map
        (fun (prefix, shape) ->
          match shape with
          | `Tour n -> tournament ~seed prefix n
          | `Shape ->
              shape_graph ~seed prefix ~nodes:(shape_nodes scale) ~deg:2
                ("p" :: "t" :: List.init 7 (Printf.sprintf "c%d")))
        instances;
    queries =
      List.map (fun (fname, prefix, _, forest) -> { fname; text = reprefix prefix forest }) spec;
  }

(* Batches for the frontier store: reverse [changes_per_batch] distinct
   tournament edges (delete a→b, add b→a). *)
let frontier_batches ~seed scale f =
  let st = Random.State.make [| seed; 6 |] in
  let is_edge p = String.length p > 2 && String.sub p (String.length p - 2) 2 = ":r" in
  let edges =
    Hashtbl.of_seq
      (List.to_seq f.fdata |> Seq.filter (fun (_, p, _) -> is_edge p) |> Seq.map (fun e -> (e, ())))
  in
  List.init (batch_count scale) (fun _ ->
      let live = Array.of_seq (Hashtbl.to_seq_keys edges) in
      Array.sort compare live;
      let moves =
        Array.to_list (sample_distinct st (Array.length live) changes_per_batch)
        |> List.map (fun i ->
               let ((a, r, b) as old) = live.(i) in
               Hashtbl.remove edges old;
               Hashtbl.replace edges (b, r, a) ();
               ((b, r, a), old))
      in
      let adds = List.map fst moves and dels = List.map snd moves in
      let s, p, o = List.hd adds in
      { adds; dels; probe = Printf.sprintf "{ %s %s %s . }" s p o })

(* ------------------------------------------------------------------ *)
(* Files and digests                                                    *)
(* ------------------------------------------------------------------ *)

let ntriples triples =
  let b = Buffer.create (List.length triples * 64) in
  List.iter
    (fun (s, p, o) -> Printf.bprintf b "<%s> <%s> <%s> .\n" s p o)
    triples;
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let triple_of (s, p, o) = Triple.make (Term.iri s) (Term.iri p) (Term.iri o)
let graph_of triples = Graph.of_triples (List.map triple_of triples)
