type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------------- printing ---------------- *)

let write_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      (* round-trippable float syntax that is still valid JSON *)
      let s = Printf.sprintf "%.17g" f in
      let s =
        if String.contains s '.' || String.contains s 'e'
           || String.contains s 'n' (* nan/inf are not JSON; print null *)
        then s
        else s ^ ".0"
      in
      if String.contains s 'n' then Buffer.add_string b "null"
      else Buffer.add_string b s
  | String s -> write_string b s
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          write b item)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write_string b k;
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 256 in
  write b j;
  Buffer.contents b

let pp ppf j = Fmt.string ppf (to_string j)

(* ---------------- parsing ---------------- *)

exception Parse of string

let of_string src =
  let n = String.length src in
  let i = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !i)) in
  let skip_ws () =
    while
      !i < n && (match src.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr i
    done
  in
  let expect c =
    if !i < n && src.[!i] = c then incr i
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !i + l <= n && String.sub src !i l = word then begin
      i := !i + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string"
      else
        match src.[!i] with
        | '"' -> incr i
        | '\\' ->
            incr i;
            if !i >= n then fail "unterminated escape";
            (match src.[!i] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if !i + 4 >= n then fail "truncated \\u escape";
                let hex = String.sub src (!i + 1) 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "bad \\u escape"
                in
                (* Only codepoints < 0x80 are produced by our printer;
                   decode those and pass larger ones through as '?'. *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else Buffer.add_char b '?';
                i := !i + 4
            | c -> fail (Printf.sprintf "bad escape \\%c" c));
            incr i;
            go ()
        | c ->
            Buffer.add_char b c;
            incr i;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !i in
    if !i < n && (src.[!i] = '-' || src.[!i] = '+') then incr i;
    let is_float = ref false in
    while
      !i < n
      &&
      match src.[!i] with
      | '0' .. '9' -> true
      | '.' | 'e' | 'E' | '-' | '+' ->
          is_float := true;
          true
      | _ -> false
    do
      incr i
    done;
    let text = String.sub src start (!i - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some k -> Int k
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    if !i >= n then fail "unexpected end of input"
    else
      match src.[!i] with
      | 'n' -> literal "null" Null
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | '"' -> String (parse_string ())
      | '[' ->
          incr i;
          skip_ws ();
          if !i < n && src.[!i] = ']' then begin
            incr i;
            List []
          end
          else
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              if !i < n && src.[!i] = ',' then begin
                incr i;
                items (v :: acc)
              end
              else begin
                expect ']';
                List (List.rev (v :: acc))
              end
            in
            items []
      | '{' ->
          incr i;
          skip_ws ();
          if !i < n && src.[!i] = '}' then begin
            incr i;
            Obj []
          end
          else
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let rec fields acc =
              let kv = field () in
              skip_ws ();
              if !i < n && src.[!i] = ',' then begin
                incr i;
                fields (kv :: acc)
              end
              else begin
                expect '}';
                Obj (List.rev (kv :: acc))
              end
            in
            fields []
      | '-' | '0' .. '9' -> parse_number ()
      | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !i < n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error msg

(* ---------------- accessors ---------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List l -> Some l | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_int = function Int i -> Some i | _ -> None
