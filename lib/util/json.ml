type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

let int n = Num (float_of_int n)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.9g" f
  else "null"

let rec to_string_at indent v =
  let flat = function Arr (_ :: _) | Obj (_ :: _) -> false | _ -> true in
  let container opening closing items =
    if items = [] then opening ^ closing
    else if List.for_all (fun (_, v) -> flat v) items then
      opening ^ String.concat ", " (List.map (fun (k, v) -> k ^ to_string_at indent v) items) ^ closing
    else
      let inner = indent ^ "  " in
      opening ^ "\n"
      ^ String.concat ",\n" (List.map (fun (k, v) -> inner ^ k ^ to_string_at inner v) items)
      ^ "\n" ^ indent ^ closing
  in
  match v with
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr items -> container "[" "]" (List.map (fun v -> ("", v)) items)
  | Obj members -> container "{" "}" (List.map (fun (k, v) -> ("\"" ^ escape k ^ "\": ", v)) members)

let to_string v = to_string_at "" v

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let expect c = if peek () = Some c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then (
      pos := !pos + len;
      v)
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
          incr pos;
          (match peek () with
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some ('"' | '\\' | '/') -> Buffer.add_char b s.[!pos]
          | Some 'u' when !pos + 4 < n -> (
              match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | Some code when Uchar.is_valid code ->
                  Buffer.add_utf_8_uchar b (Uchar.of_int code);
                  pos := !pos + 4
              | _ -> fail "bad \\u escape")
          | _ -> fail "bad escape");
          incr pos;
          go ()
      | Some c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while match peek () with Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true | _ -> false do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  (* [items close item] parses "item (, item)* close" after the opener. *)
  let items close item =
    skip_ws ();
    if peek () = Some close then (
      incr pos;
      [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            go acc
        | Some c when c = close ->
            incr pos;
            List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        Obj
          (items '}' (fun () ->
               skip_ws ();
               let key = parse_string () in
               skip_ws ();
               expect ':';
               (key, value ())))
    | Some '[' ->
        incr pos;
        Arr (items ']' value)
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function Obj members -> List.assoc_opt key members | _ -> None
