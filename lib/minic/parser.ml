open Ast

(* Two-dimensional arrays are desugared at parse time: [double a[n][m]]
   becomes a 1-D array of n*m elements, and [a[i][j]] becomes
   [a[i*m + j]] with the declared inner dimension substituted in. The
   analyses then see ordinary affine/symbolic-linear subscripts, and a
   [localaccess(a: stride(m, ...))] window distributes the matrix by
   whole rows — the generalization the paper's §VI sketches. [dims2]
   records the inner dimension of every 2-D array in the function being
   parsed. *)
type p = {
  mutable toks : (Token.t * Loc.t) list;
  dims2 : (string, expr) Hashtbl.t;
}

let peek p = match p.toks with [] -> (Token.Teof, Loc.dummy) | t :: _ -> t
let peek_tok p = fst (peek p)
let cur_loc p = snd (peek p)

let next p =
  match p.toks with
  | [] -> (Token.Teof, Loc.dummy)
  | t :: rest ->
      p.toks <- rest;
      t

let skip p = ignore (next p)

let fail p fmt =
  let loc = cur_loc p in
  Format.kasprintf
    (fun msg -> Loc.error loc "%s (found %s)" msg (Token.to_string (peek_tok p)))
    fmt

let expect_punct p s =
  match next p with
  | Token.Tpunct s', _ when s' = s -> ()
  | tok, loc -> Loc.error loc "expected %S, found %s" s (Token.to_string tok)

let expect_ident p =
  match next p with
  | Token.Tident s, _ -> s
  | tok, loc -> Loc.error loc "expected identifier, found %s" (Token.to_string tok)

let eat_punct p s =
  match peek_tok p with
  | Token.Tpunct s' when s' = s ->
      skip p;
      true
  | _ -> false

let eat_ident p s =
  match peek_tok p with
  | Token.Tident s' when s' = s ->
      skip p;
      true
  | _ -> false

let is_punct p s = match peek_tok p with Token.Tpunct s' -> s' = s | _ -> false
let is_kw p s = match peek_tok p with Token.Tkw s' -> s' = s | _ -> false

(* ------------------------------------------------------------------ *)
(* Expressions: precedence climbing.                                   *)
(* ------------------------------------------------------------------ *)

let mk loc edesc = { edesc; eloc = loc }

(* Binary operator precedence table, loosest first. *)
let binop_levels =
  [|
    [ ("||", Lor) ];
    [ ("&&", Land) ];
    [ ("|", Bor) ];
    [ ("^", Bxor) ];
    [ ("&", Band) ];
    [ ("==", Eq); ("!=", Ne) ];
    [ ("<", Lt); ("<=", Le); (">", Gt); (">=", Ge) ];
    [ ("<<", Shl); (">>", Shr) ];
    [ ("+", Add); ("-", Sub) ];
    [ ("*", Mul); ("/", Div); ("%", Mod) ];
  |]

let rec parse_expr_p p = parse_ternary p

and parse_ternary p =
  let cond = parse_binop p 0 in
  if eat_punct p "?" then begin
    let then_ = parse_expr_p p in
    expect_punct p ":";
    let else_ = parse_ternary p in
    mk cond.eloc (Ternary (cond, then_, else_))
  end
  else cond

and parse_binop p level =
  if level >= Array.length binop_levels then parse_unary p
  else begin
    let lhs = ref (parse_binop p (level + 1)) in
    let continue = ref true in
    while !continue do
      match peek_tok p with
      | Token.Tpunct s -> (
          match List.assoc_opt s binop_levels.(level) with
          | Some op ->
              skip p;
              let rhs = parse_binop p (level + 1) in
              lhs := mk (!lhs).eloc (Binop (op, !lhs, rhs))
          | None -> continue := false)
      | _ -> continue := false
    done;
    !lhs
  end

and parse_unary p =
  let loc = cur_loc p in
  match peek_tok p with
  | Token.Tpunct "-" ->
      skip p;
      mk loc (Unop (Neg, parse_unary p))
  | Token.Tpunct "!" ->
      skip p;
      mk loc (Unop (Not, parse_unary p))
  | Token.Tpunct "~" ->
      skip p;
      mk loc (Unop (Bit_not, parse_unary p))
  | Token.Tpunct "+" ->
      skip p;
      parse_unary p
  | Token.Tpunct "(" -> (
      (* Either a cast "(int)e" / "(double)e" or a parenthesized expr. *)
      match p.toks with
      | (Token.Tpunct "(", _) :: (Token.Tkw ("int" as k), _) :: (Token.Tpunct ")", _) :: _
      | (Token.Tpunct "(", _) :: (Token.Tkw (("double" | "float") as k), _) :: (Token.Tpunct ")", _) :: _
        ->
          skip p;
          skip p;
          skip p;
          let cast = if k = "int" then Cast_int else Cast_double in
          mk loc (Unop (cast, parse_unary p))
      | _ ->
          skip p;
          let e = parse_expr_p p in
          expect_punct p ")";
          e)
  | _ -> parse_primary p

and parse_primary p =
  let tok, loc = next p in
  match tok with
  | Token.Tint_lit n -> mk loc (Int_lit n)
  | Token.Tfloat_lit f -> mk loc (Float_lit f)
  | Token.Tident "__length" ->
      expect_punct p "(";
      let a = expect_ident p in
      expect_punct p ")";
      mk loc (Length a)
  | Token.Tident name ->
      if eat_punct p "(" then begin
        let args = ref [] in
        if not (is_punct p ")") then begin
          args := [ parse_expr_p p ];
          while eat_punct p "," do
            args := parse_expr_p p :: !args
          done
        end;
        expect_punct p ")";
        mk loc (Call (name, List.rev !args))
      end
      else if eat_punct p "[" then begin
        let idx = parse_expr_p p in
        expect_punct p "]";
        if eat_punct p "[" then begin
          let idx2 = parse_expr_p p in
          expect_punct p "]";
          match Hashtbl.find_opt p.dims2 name with
          | Some inner ->
              let row = mk loc (Binop (Mul, idx, inner)) in
              mk loc (Index (name, mk loc (Binop (Add, row, idx2))))
          | None -> Loc.error loc "%s is not a two-dimensional array" name
        end
        else mk loc (Index (name, idx))
      end
      else mk loc (Var name)
  | tok -> Loc.error loc "expected expression, found %s" (Token.to_string tok)

(* ------------------------------------------------------------------ *)
(* Directives.                                                          *)
(* ------------------------------------------------------------------ *)

let parse_redop p =
  let tok, loc = next p in
  match tok with
  | Token.Tpunct "+" -> Rplus
  | Token.Tpunct "*" -> Rmul
  | Token.Tident "max" -> Rmax
  | Token.Tident "min" -> Rmin
  | tok -> Loc.error loc "expected reduction operator (+, *, max, min), found %s" (Token.to_string tok)

let parse_subarray p =
  let sub_loc = cur_loc p in
  let name = expect_ident p in
  if eat_punct p "[" then begin
    let start = parse_expr_p p in
    expect_punct p ":";
    let len = parse_expr_p p in
    expect_punct p "]";
    { sub_array = name; sub_start = Some start; sub_len = Some len; sub_loc }
  end
  else { sub_array = name; sub_start = None; sub_len = None; sub_loc }

let parse_subarray_list p =
  expect_punct p "(";
  let subs = ref [ parse_subarray p ] in
  while eat_punct p "," do
    subs := parse_subarray p :: !subs
  done;
  expect_punct p ")";
  List.rev !subs

(* One localaccess entry: "a : stride(s [, left [, right]])" or "a : full". *)
let parse_la_spec p =
  let loc = cur_loc p in
  let name = expect_ident p in
  expect_punct p ":";
  if eat_ident p "full" then
    (* Whole-array access: declared, but gives the runtime no partition. *)
    None
  else begin
    if not (eat_ident p "stride") then
      Loc.error loc "localaccess spec for %s: expected 'stride(...)' or 'full'" name;
    expect_punct p "(";
    let stride = parse_expr_p p in
    let zero = mk loc (Int_lit 0) in
    let left = if eat_punct p "," then parse_expr_p p else zero in
    let right = if eat_punct p "," then parse_expr_p p else zero in
    expect_punct p ")";
    Some { la_array = name; la_stride = stride; la_left = left; la_right = right }
  end

let parse_la_specs p =
  expect_punct p "(";
  let specs = ref [] in
  (match parse_la_spec p with Some s -> specs := [ s ] | None -> ());
  while eat_punct p "," do
    match parse_la_spec p with Some s -> specs := s :: !specs | None -> ()
  done;
  expect_punct p ")";
  List.rev !specs

let parse_opt_int_arg p =
  if eat_punct p "(" then begin
    match next p with
    | Token.Tint_lit n, _ ->
        expect_punct p ")";
        Some n
    | tok, loc -> Loc.error loc "expected integer, found %s" (Token.to_string tok)
  end
  else None

let data_kind_of_name = function
  | "copy" -> Some Copy
  | "copyin" -> Some Copyin
  | "copyout" -> Some Copyout
  | "create" -> Some Create
  | "present" -> Some Present
  | _ -> None

let rec parse_clauses p acc =
  match peek_tok p with
  | Token.Teof -> List.rev acc
  | Token.Tkw "if" ->
      skip p;
      expect_punct p "(";
      let cond = parse_expr_p p in
      expect_punct p ")";
      parse_clauses p (Cif cond :: acc)
  | Token.Tident name -> (
      match data_kind_of_name name with
      | Some kind ->
          skip p;
          parse_clauses p (Cdata (kind, parse_subarray_list p) :: acc)
      | None -> (
          match name with
          | "reduction" ->
              skip p;
              expect_punct p "(";
              let op = parse_redop p in
              expect_punct p ":";
              let vars = ref [ expect_ident p ] in
              while eat_punct p "," do
                vars := expect_ident p :: !vars
              done;
              expect_punct p ")";
              parse_clauses p (Creduction (op, List.rev !vars) :: acc)
          | "gang" ->
              skip p;
              parse_clauses p (Cgang (parse_opt_int_arg p) :: acc)
          | "worker" ->
              skip p;
              parse_clauses p (Cworker (parse_opt_int_arg p) :: acc)
          | "vector" ->
              skip p;
              parse_clauses p (Cvector (parse_opt_int_arg p) :: acc)
          | "independent" ->
              skip p;
              parse_clauses p (Cindependent :: acc)
          | "localaccess" ->
              skip p;
              parse_clauses p (Clocalaccess (parse_la_specs p) :: acc)
          | other -> fail p "unknown clause %S" other))
  | _ -> fail p "expected clause"

let parse_directive_p p =
  let loc = cur_loc p in
  if not (eat_ident p "acc") then Loc.error loc "expected 'acc' after #pragma";
  match next p with
  | Token.Tident "parallel", _ | Token.Tident "kernels", _ ->
      ignore (eat_ident p "loop");
      Dparallel_loop (parse_clauses p [])
  | Token.Tident "loop", _ -> Dparallel_loop (parse_clauses p [])
  | Token.Tident "data", _ -> Ddata (parse_clauses p [])
  | Token.Tident "enter", _ ->
      if not (eat_ident p "data") then Loc.error loc "expected 'data' after 'enter'";
      Denter_data (parse_clauses p [])
  | Token.Tident "exit", _ ->
      if not (eat_ident p "data") then Loc.error loc "expected 'data' after 'exit'";
      Dexit_data (parse_clauses p [])
  | Token.Tident "update", _ ->
      if eat_ident p "host" then Dupdate_host (parse_subarray_list p)
      else if eat_ident p "device" then Dupdate_device (parse_subarray_list p)
      else Loc.error loc "update requires host(...) or device(...)"
  | Token.Tident "localaccess", _ ->
      Dlocalaccess (parse_la_specs p)
  | Token.Tident "reductiontoarray", _ ->
      expect_punct p "(";
      let op = parse_redop p in
      expect_punct p ":";
      let arr = expect_ident p in
      (* Tolerate (and ignore) an explicit subarray range. *)
      if eat_punct p "[" then begin
        ignore (parse_expr_p p);
        expect_punct p ":";
        ignore (parse_expr_p p);
        expect_punct p "]"
      end;
      expect_punct p ")";
      Dreduction_to_array { rta_op = op; rta_array = arr }
  | tok, loc -> Loc.error loc "unknown acc directive %s" (Token.to_string tok)

(* ------------------------------------------------------------------ *)
(* Statements.                                                          *)
(* ------------------------------------------------------------------ *)

let mks loc sdesc = { sdesc; sloc = loc }

let parse_type_name p =
  let tok, loc = next p in
  match tok with
  | Token.Tkw "void" -> Tvoid
  | Token.Tkw "int" -> Tint
  | Token.Tkw "double" | Token.Tkw "float" -> Tdouble
  | tok -> Loc.error loc "expected type, found %s" (Token.to_string tok)

let is_type_kw p = is_kw p "int" || is_kw p "double" || is_kw p "float" || is_kw p "void"

let lvalue_of_expr e =
  match e.edesc with
  | Var v -> Lvar v
  | Index (a, i) -> Lindex (a, i)
  | _ -> Loc.error e.eloc "not an assignable lvalue"

(* A "simple statement": assignment, increment, or expression. Shared by
   for-headers and expression statements; does not consume ';'. *)
let parse_simple_stmt p =
  let loc = cur_loc p in
  let e = parse_expr_p p in
  match peek_tok p with
  | Token.Tpunct "=" ->
      skip p;
      mks loc (Sassign (lvalue_of_expr e, Set, parse_expr_p p))
  | Token.Tpunct "+=" ->
      skip p;
      mks loc (Sassign (lvalue_of_expr e, Add_set, parse_expr_p p))
  | Token.Tpunct "-=" ->
      skip p;
      mks loc (Sassign (lvalue_of_expr e, Sub_set, parse_expr_p p))
  | Token.Tpunct "*=" ->
      skip p;
      mks loc (Sassign (lvalue_of_expr e, Mul_set, parse_expr_p p))
  | Token.Tpunct "/=" ->
      skip p;
      mks loc (Sassign (lvalue_of_expr e, Div_set, parse_expr_p p))
  | Token.Tpunct "++" ->
      skip p;
      mks loc (Sincr (lvalue_of_expr e, 1))
  | Token.Tpunct "--" ->
      skip p;
      mks loc (Sincr (lvalue_of_expr e, -1))
  | _ -> mks loc (Sexpr e)

let parse_decl p =
  let loc = cur_loc p in
  let ty = parse_type_name p in
  let name = expect_ident p in
  if eat_punct p "[" then begin
    let elem =
      match ty with
      | Tint -> Eint
      | Tdouble -> Edouble
      | Tvoid | Tarray _ -> Loc.error loc "array of %s not supported" (typ_to_string ty)
    in
    let len = parse_expr_p p in
    expect_punct p "]";
    if eat_punct p "[" then begin
      let inner = parse_expr_p p in
      expect_punct p "]";
      Hashtbl.replace p.dims2 name inner;
      mks loc (Sarray_decl (elem, name, { edesc = Binop (Mul, len, inner); eloc = loc }))
    end
    else mks loc (Sarray_decl (elem, name, len))
  end
  else begin
    let init = if eat_punct p "=" then Some (parse_expr_p p) else None in
    mks loc (Sdecl (ty, name, init))
  end

let rec parse_stmt p =
  let loc = cur_loc p in
  match peek_tok p with
  | Token.Tpragma payload ->
      skip p;
      let dp =
        { p with toks = Lexer.tokenize_fragment ~file:loc.Loc.file ~line:loc.Loc.line payload }
      in
      let d = parse_directive_p dp in
      (match peek_tok dp with
      | Token.Teof -> ()
      | tok -> Loc.error loc "trailing tokens in pragma: %s" (Token.to_string tok));
      mks loc (Spragma (d, parse_stmt p))
  | Token.Tpunct ";" ->
      (* Empty statement: the anchor for standalone executable directives. *)
      skip p;
      mks loc (Sblock [])
  | Token.Tpunct "{" ->
      skip p;
      let body = parse_stmts_until p "}" in
      mks loc (Sblock body)
  | Token.Tkw "if" ->
      skip p;
      expect_punct p "(";
      let cond = parse_expr_p p in
      expect_punct p ")";
      let then_ = parse_stmt p in
      let else_ = if is_kw p "else" then (skip p; [ parse_stmt p ]) else [] in
      mks loc (Sif (cond, [ then_ ], else_))
  | Token.Tkw "while" ->
      skip p;
      expect_punct p "(";
      let cond = parse_expr_p p in
      expect_punct p ")";
      mks loc (Swhile (cond, [ parse_stmt p ]))
  | Token.Tkw "for" ->
      skip p;
      expect_punct p "(";
      let for_init =
        if is_punct p ";" then None
        else if is_type_kw p then Some (parse_decl p)
        else Some (parse_simple_stmt p)
      in
      expect_punct p ";";
      let for_cond = if is_punct p ";" then None else Some (parse_expr_p p) in
      expect_punct p ";";
      let for_update = if is_punct p ")" then None else Some (parse_simple_stmt p) in
      expect_punct p ")";
      mks loc (Sfor ({ for_init; for_cond; for_update }, [ parse_stmt p ]))
  | Token.Tkw "return" ->
      skip p;
      let e = if is_punct p ";" then None else Some (parse_expr_p p) in
      expect_punct p ";";
      mks loc (Sreturn e)
  | Token.Tkw "break" ->
      skip p;
      expect_punct p ";";
      mks loc Sbreak
  | Token.Tkw "continue" ->
      skip p;
      expect_punct p ";";
      mks loc Scontinue
  | Token.Tkw ("int" | "double" | "float" | "void") ->
      let d = parse_decl p in
      expect_punct p ";";
      d
  | _ ->
      let s = parse_simple_stmt p in
      expect_punct p ";";
      s

and parse_stmts_until p closer =
  let stmts = ref [] in
  while not (is_punct p closer) do
    if peek_tok p = Token.Teof then fail p "unexpected end of input, expected %S" closer;
    stmts := parse_stmt p :: !stmts
  done;
  skip p;
  List.rev !stmts

(* ------------------------------------------------------------------ *)
(* Top level.                                                           *)
(* ------------------------------------------------------------------ *)

let parse_param p =
  let loc = cur_loc p in
  let ty = parse_type_name p in
  (* Accept both "double *x" and "double x[]". *)
  let pointer = eat_punct p "*" in
  let name = expect_ident p in
  let array = eat_punct p "[" in
  if array then begin
    expect_punct p "]";
    (* VLA-style 2-D parameter: double a[][m] (m from an earlier param). *)
    if eat_punct p "[" then begin
      let inner = parse_expr_p p in
      expect_punct p "]";
      Hashtbl.replace p.dims2 name inner
    end
  end;
  let param_ty =
    if pointer || array then
      match ty with
      | Tint -> Tarray Eint
      | Tdouble -> Tarray Edouble
      | Tvoid | Tarray _ -> Loc.error loc "array of %s not supported" (typ_to_string ty)
    else ty
  in
  { param_name = name; param_ty }

let parse_func p =
  Hashtbl.reset p.dims2;
  let loc = cur_loc p in
  let fret = parse_type_name p in
  let fname = expect_ident p in
  expect_punct p "(";
  let fparams = ref [] in
  if not (is_punct p ")") then begin
    fparams := [ parse_param p ];
    while eat_punct p "," do
      fparams := parse_param p :: !fparams
    done
  end;
  expect_punct p ")";
  expect_punct p "{";
  let fbody = parse_stmts_until p "}" in
  { fname; fret; fparams = List.rev !fparams; fbody; floc = loc }

let parse ~file src =
  let p = { toks = Lexer.tokenize ~file src; dims2 = Hashtbl.create 8 } in
  let funcs = ref [] in
  while peek_tok p <> Token.Teof do
    funcs := parse_func p :: !funcs
  done;
  { funcs = List.rev !funcs; source_name = file }

let parse_expr ~file src =
  let p = { toks = Lexer.tokenize ~file src; dims2 = Hashtbl.create 8 } in
  let e = parse_expr_p p in
  (match peek_tok p with
  | Token.Teof -> ()
  | tok -> Loc.error (cur_loc p) "trailing tokens after expression: %s" (Token.to_string tok));
  e

let parse_directive ~file ~line payload =
  let p = { toks = Lexer.tokenize_fragment ~file ~line payload; dims2 = Hashtbl.create 8 } in
  let d = parse_directive_p p in
  (match peek_tok p with
  | Token.Teof -> ()
  | tok -> Loc.error (cur_loc p) "trailing tokens in pragma: %s" (Token.to_string tok));
  d
