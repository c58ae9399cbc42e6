open Rdf

let rec is_union_free = function
  | Algebra.Triple _ -> true
  | Algebra.And (a, b) | Algebra.Opt (a, b) -> is_union_free a && is_union_free b
  | Algebra.Filter (p, _) | Algebra.Select (_, p) -> is_union_free p
  | Algebra.Union _ -> false

let rec union_branches = function
  | Algebra.Union (a, b) -> union_branches a @ union_branches b
  | Algebra.Select (_, p) -> union_branches p
  | p -> [ p ]

type violation =
  | Nested_union of Algebra.t
  | Unsafe_variable of {
      variable : Variable.t;
      opt : Algebra.t;
      outside : Algebra.t;
    }
  | Unsafe_filter of Condition.t * Algebra.t
  | Nested_select of Algebra.t
  | Beyond_core_fragment of Algebra.t

let pp_violation ppf = function
  | Nested_union p -> Fmt.pf ppf "UNION nested below AND/OPT in %a" Algebra.pp p
  | Unsafe_variable { variable; opt; outside } ->
      Fmt.pf ppf
        "variable %a occurs in the OPT right arm of %a, not in its left arm, \
         and again outside it (in %a)"
        Variable.pp variable Algebra.pp opt Algebra.pp outside
  | Unsafe_filter (c, p) ->
      Fmt.pf ppf "unsafe filter (%a) in %a: it mentions variables outside its pattern"
        Condition.pp c Algebra.pp p
  | Nested_select p -> Fmt.pf ppf "SELECT below the top level in %a" Algebra.pp p
  | Beyond_core_fragment p ->
      Fmt.pf ppf
        "%a uses FILTER/SELECT: outside the paper's core AND/OPT/UNION \
         fragment (Section 5)"
        Algebra.pp p

(* Each subpattern's variables, computed once bottom up, with whether an
   OPT lies below: only an OPT reads the [outside] map, so it is built
   only on the way to one. *)
type annotated = {
  vars : Variable.Set.t;
  has_opt : bool;
  arms : annotated list;  (* the operands, in syntactic order *)
}

let rec annotate = function
  | Algebra.Triple t -> { vars = Triple.vars t; has_opt = false; arms = [] }
  | Algebra.And (a, b) | Algebra.Union (a, b) ->
      let a = annotate a and b = annotate b in
      {
        vars = Variable.Set.union a.vars b.vars;
        has_opt = a.has_opt || b.has_opt;
        arms = [ a; b ];
      }
  | Algebra.Opt (a, b) ->
      let a = annotate a and b = annotate b in
      { vars = Variable.Set.union a.vars b.vars; has_opt = true; arms = [ a; b ] }
  | Algebra.Filter (q, _) | Algebra.Select (_, q) ->
      let q = annotate q in
      { q with arms = [ q ] }

let check p =
  let ( let* ) = Result.bind in
  (* outside: for each variable occurring outside the current subpattern
     (within the enclosing UNION-free branch), the innermost sibling
     subpattern witnessing that occurrence — kept so a violation can name
     the re-occurrence, not just the variable. Only kept up to date on
     the way to an OPT, the one reader. *)
  let contribute ~into (q, qa) m =
    if into.has_opt then
      Variable.Set.fold (fun v m -> Variable.Map.add v q m) qa.vars m
    else m
  in
  let rec go outside p pa =
    match (p, pa.arms) with
    | Algebra.Triple _, _ -> Ok ()
    | Algebra.Union _, _ -> Error (Nested_union p)
    | Algebra.Select _, _ -> Error (Nested_select p)
    | Algebra.Filter (q, condition), [ qa ] ->
        let* () =
          if Variable.Set.subset (Condition.vars condition) qa.vars then Ok ()
          else Error (Unsafe_filter (condition, p))
        in
        go outside q qa
    | Algebra.And (a, b), [ aa; ba ] ->
        let* () = go (contribute ~into:aa (b, ba) outside) a aa in
        go (contribute ~into:ba (a, aa) outside) b ba
    | Algebra.Opt (a, b), [ aa; ba ] ->
        (* the least variable of vars(b) \ vars(a) occurring outside *)
        let unsafe =
          if Variable.Map.is_empty outside then None
          else
            Seq.find
              (fun v ->
                (not (Variable.Set.mem v aa.vars)) && Variable.Map.mem v outside)
              (Variable.Set.to_seq ba.vars)
        in
        let* () =
          match unsafe with
          | Some v ->
              Error
                (Unsafe_variable
                   {
                     variable = v;
                     opt = p;
                     outside = Variable.Map.find v outside;
                   })
          | None -> Ok ()
        in
        let* () = go (contribute ~into:aa (b, ba) outside) a aa in
        go (contribute ~into:ba (a, aa) outside) b ba
    | (Algebra.Filter _ | Algebra.And _ | Algebra.Opt _), _ -> assert false
  in
  (* a single outermost SELECT is allowed *)
  let body = match p with Algebra.Select (_, q) -> q | q -> q in
  List.fold_left
    (fun acc branch ->
      let* () = acc in
      go Variable.Map.empty branch (annotate branch))
    (Ok ()) (union_branches body)

let is_well_designed p = Result.is_ok (check p)
