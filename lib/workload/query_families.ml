open Rdf
open Tgraphs

let v name = Term.var name
let p name = Term.iri ("p:" ^ name)

let kk k names =
  if List.length names <> k then invalid_arg "Query_families.kk: arity mismatch";
  let arr = Array.of_list names in
  let triples = ref [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      triples := Triple.make (v arr.(i)) (p "r") (v arr.(j)) :: !triples
    done
  done;
  Tgraph.of_triples !triples

let o_names k = List.init k (fun i -> Printf.sprintf "o%d" (i + 1))

let f_k k =
  if k < 2 then invalid_arg "Query_families.f_k: k must be at least 2";
  let t_x_p_y = Triple.make (v "x") (p "p") (v "y") in
  let t_z_q_x = Triple.make (v "z") (p "q") (v "x") in
  let t1 =
    Wdpt.Pattern_tree.make
      ~labels:
        [|
          Tgraph.of_triples [ t_x_p_y ];
          (* n11 *)
          Tgraph.of_triples [ t_z_q_x ];
          (* n12 *)
          Tgraph.union
            (Tgraph.of_triples [ Triple.make (v "y") (p "r") (v "o1") ])
            (kk k (o_names k));
        |]
      ~parent:[| -1; 0; 0 |]
  in
  let t2 =
    Wdpt.Pattern_tree.make
      ~labels:
        [|
          Tgraph.of_triples [ t_x_p_y ];
          Tgraph.of_triples
            [ t_z_q_x; Triple.make (v "w") (p "q") (v "z") ];
        |]
      ~parent:[| -1; 0 |]
  in
  let t3 =
    Wdpt.Pattern_tree.make
      ~labels:
        [|
          Tgraph.of_triples [ t_x_p_y; t_z_q_x ];
          Tgraph.of_triples
            [
              Triple.make (v "y") (p "r") (v "o");
              Triple.make (v "o") (p "r") (v "o");
            ];
        |]
      ~parent:[| -1; 0 |]
  in
  [ t1; t2; t3 ]

let class_t = Term.iri "c:T"

let f_k_typed k =
  let typed names =
    Tgraph.of_triples
      (List.map (fun o -> Triple.make (v o) (p "type") class_t) names)
  in
  let pat = Wdpt.Pattern_tree.pat in
  match f_k k with
  | [ t1; t2; t3 ] ->
      [
        Wdpt.Pattern_tree.make
          ~labels:
            [| pat t1 0; pat t1 1; Tgraph.union (pat t1 2) (typed (o_names k)) |]
          ~parent:[| -1; 0; 0 |];
        t2;
        Wdpt.Pattern_tree.make
          ~labels:[| pat t3 0; Tgraph.union (pat t3 1) (typed [ "o" ]) |]
          ~parent:[| -1; 0 |];
      ]
  | _ -> assert false

let t_prime_k k =
  if k < 2 then invalid_arg "Query_families.t_prime_k: k must be at least 2";
  Wdpt.Pattern_tree.make
    ~labels:
      [|
        Tgraph.of_triples [ Triple.make (v "y") (p "r") (v "y") ];
        Tgraph.union
          (Tgraph.of_triples [ Triple.make (v "y") (p "r") (v "o1") ])
          (kk k (o_names k));
      |]
    ~parent:[| -1; 0 |]

let clique_child k =
  if k < 2 then invalid_arg "Query_families.clique_child: k must be at least 2";
  Wdpt.Pattern_tree.make
    ~labels:
      [|
        Tgraph.of_triples [ Triple.make (v "x") (p "p") (v "y") ];
        Tgraph.union
          (Tgraph.of_triples [ Triple.make (v "y") (p "r") (v "o1") ])
          (kk k (o_names k));
      |]
    ~parent:[| -1; 0 |]

let xi i = Printf.sprintf "x%d" i

let path_query n =
  if n < 1 then invalid_arg "Query_families.path_query: need at least one hop";
  let labels =
    Array.init n (fun i ->
        Tgraph.of_triples [ Triple.make (v (xi i)) (p "p") (v (xi (i + 1))) ])
  in
  let parent = Array.init n (fun i -> i - 1) in
  Wdpt.Pattern_tree.make ~labels ~parent

let star_query n =
  let labels =
    Array.init (n + 1) (fun i ->
        Tgraph.of_triples
          [ Triple.make (v "x") (p (Printf.sprintf "c%d" i)) (v (Printf.sprintf "y%d" i)) ])
  in
  let parent = Array.init (n + 1) (fun i -> if i = 0 then -1 else 0) in
  Wdpt.Pattern_tree.make ~labels ~parent

let comb_query n =
  if n < 1 then invalid_arg "Query_families.comb_query: need a positive spine";
  (* nodes: spine 0..n-1 (node ids 2i), teeth (ids 2i+1 hanging off spine i) *)
  let labels = Array.make (2 * n) Tgraph.empty in
  let parent = Array.make (2 * n) (-1) in
  for i = 0 to n - 1 do
    labels.(2 * i) <-
      Tgraph.of_triples [ Triple.make (v (xi i)) (p "p") (v (xi (i + 1))) ];
    parent.(2 * i) <- (if i = 0 then -1 else 2 * (i - 1));
    labels.((2 * i) + 1) <-
      Tgraph.of_triples
        [ Triple.make (v (xi i)) (p "t") (v (Printf.sprintf "tooth%d" i)) ];
    parent.((2 * i) + 1) <- 2 * i
  done;
  Wdpt.Pattern_tree.make ~labels ~parent

let grid_var r c = Variable.of_string (Printf.sprintf "g%d_%d" r c)

let grid_query ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Query_families.grid_query: empty grid";
  let gv r c = Term.Var (grid_var r c) in
  let triples = ref [ Triple.make (v "y") (p "e") (gv 0 0) ] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then
        triples := Triple.make (gv r c) (p "right") (gv r (c + 1)) :: !triples;
      if r + 1 < rows then
        triples := Triple.make (gv r c) (p "down") (gv (r + 1) c) :: !triples
    done
  done;
  Wdpt.Pattern_tree.make
    ~labels:
      [|
        Tgraph.of_triples [ Triple.make (v "x") (p "p") (v "y") ];
        Tgraph.of_triples !triples;
      |]
    ~parent:[| -1; 0 |]

let random_wd_pattern ~seed ~triples ~vars ~preds ~depth ~union =
  let state = Random.State.make [| seed; triples; vars; preds; depth; union |] in
  let counter = ref 0 in
  let fresh_var () =
    incr counter;
    Printf.sprintf "v%d" !counter
  in
  let pred () = p (Printf.sprintf "q%d" (Random.State.int state (max 1 preds))) in
  let constant () = Term.iri (Printf.sprintf "c:%d" (Random.State.int state 5)) in
  (* A node: a few triples over available ∪ locally-fresh variables. The
     variables handed to children are those actually used here, which keeps
     the result well-designed and variable-connected by construction. *)
  let rec node available budget depth_left =
    let node_triples = max 1 (min budget (1 + Random.State.int state 2)) in
    let local = ref available in
    let term () =
      let n_avail = List.length !local in
      let roll = Random.State.int state 10 in
      if (roll < 5 || !counter >= vars) && n_avail > 0 then
        v (List.nth !local (Random.State.int state n_avail))
      else if roll < 8 || n_avail = 0 then begin
        let name = fresh_var () in
        local := name :: !local;
        v name
      end
      else constant ()
    in
    let ts =
      List.init node_triples (fun _ ->
          Triple.make (term ()) (pred ()) (term ()))
    in
    let here = Sparql.Algebra.and_all (List.map Sparql.Algebra.triple ts) in
    let used_vars =
      List.concat_map (fun t -> Variable.Set.elements (Triple.vars t)) ts
      |> List.map Variable.to_string
      |> List.sort_uniq compare
    in
    let remaining = budget - node_triples in
    if remaining <= 0 || depth_left <= 0 then here
    else begin
      let n_children = 1 + Random.State.int state 2 in
      let rec attach acc budget_left n =
        if n = 0 || budget_left <= 0 then acc
        else begin
          let share = max 1 (budget_left / n) in
          let child = node used_vars share (depth_left - 1) in
          attach (Sparql.Algebra.opt acc child) (budget_left - share) (n - 1)
        end
      in
      attach here remaining n_children
    end
  in
  let branches =
    List.init (max 1 union) (fun _ ->
        node [] (max 1 (triples / max 1 union)) depth)
  in
  let pattern = Sparql.Algebra.union_all branches in
  assert (Sparql.Well_designed.is_well_designed pattern);
  pattern
