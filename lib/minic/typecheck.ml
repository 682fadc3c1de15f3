open Ast

let is_numeric = function Tint | Tdouble -> true | Tvoid | Tarray _ -> false

let unify_numeric loc a b =
  match (a, b) with
  | Tint, Tint -> Tint
  | (Tdouble | Tint), (Tdouble | Tint) -> Tdouble
  | _ -> Loc.error loc "expected numeric operands, got %s and %s" (typ_to_string a) (typ_to_string b)

let rec type_of_expr lookup e =
  match e.edesc with
  | Int_lit _ -> Tint
  | Float_lit _ -> Tdouble
  | Var v -> (
      match lookup v with
      | Some t -> t
      | None -> Loc.error e.eloc "undeclared variable %s" v)
  | Length a -> (
      match lookup a with
      | Some (Tarray _) -> Tint
      | Some t -> Loc.error e.eloc "__length of non-array %s (%s)" a (typ_to_string t)
      | None -> Loc.error e.eloc "undeclared array %s" a)
  | Index (a, idx) -> (
      let it = type_of_expr lookup idx in
      if it <> Tint then Loc.error idx.eloc "array index must be int, got %s" (typ_to_string it);
      match lookup a with
      | Some (Tarray Eint) -> Tint
      | Some (Tarray Edouble) -> Tdouble
      | Some t -> Loc.error e.eloc "indexing non-array %s (%s)" a (typ_to_string t)
      | None -> Loc.error e.eloc "undeclared array %s" a)
  | Unop (op, x) -> (
      let t = type_of_expr lookup x in
      match op with
      | Neg ->
          if not (is_numeric t) then Loc.error e.eloc "negation of %s" (typ_to_string t);
          t
      | Not ->
          if not (is_numeric t) then Loc.error e.eloc "logical not of %s" (typ_to_string t);
          Tint
      | Bit_not ->
          if t <> Tint then Loc.error e.eloc "bitwise not of %s" (typ_to_string t);
          Tint
      | Cast_int ->
          if not (is_numeric t) then Loc.error e.eloc "cast of %s" (typ_to_string t);
          Tint
      | Cast_double ->
          if not (is_numeric t) then Loc.error e.eloc "cast of %s" (typ_to_string t);
          Tdouble)
  | Binop (op, x, y) -> (
      let tx = type_of_expr lookup x and ty = type_of_expr lookup y in
      match op with
      | Add | Sub | Mul | Div -> unify_numeric e.eloc tx ty
      | Mod | Band | Bor | Bxor | Shl | Shr ->
          if tx <> Tint || ty <> Tint then
            Loc.error e.eloc "integer operator %s applied to %s, %s" (binop_to_string op)
              (typ_to_string tx) (typ_to_string ty);
          Tint
      | Eq | Ne | Lt | Le | Gt | Ge | Land | Lor ->
          ignore (unify_numeric e.eloc tx ty);
          Tint)
  | Ternary (c, a, b) ->
      let tc = type_of_expr lookup c in
      if not (is_numeric tc) then Loc.error c.eloc "condition must be numeric";
      unify_numeric e.eloc (type_of_expr lookup a) (type_of_expr lookup b)
  | Call (name, args) -> (
      let arg_types = List.map (type_of_expr lookup) args in
      match Builtins.find name with
      | Some b ->
          if List.length args <> b.arity then
            Loc.error e.eloc "builtin %s expects %d arguments, got %d" name b.arity
              (List.length args);
          List.iter
            (fun t ->
              if not (is_numeric t) then
                Loc.error e.eloc "builtin %s applied to %s" name (typ_to_string t))
            arg_types;
          b.result
      | None -> Loc.error e.eloc "call to unknown function %s (checked separately)" name)

(* Function-aware typing: user calls resolve against the program. *)
let type_of_expr_in (prog : program) lookup e =
  let rec go e =
    match e.edesc with
    | Call (name, args) when not (Builtins.is_builtin name) -> (
        match find_func prog name with
        | None -> Loc.error e.eloc "call to undefined function %s" name
        | Some f ->
            if List.length args <> List.length f.fparams then
              Loc.error e.eloc "function %s expects %d arguments, got %d" name
                (List.length f.fparams) (List.length args);
            List.iter2
              (fun (p : param) arg ->
                let ta = go arg in
                match (p.param_ty, ta) with
                | Tarray ea, Tarray eb when ea = eb -> ()
                | Tarray _, _ | _, Tarray _ ->
                    Loc.error arg.eloc "argument %s of %s: array type mismatch" p.param_name name
                | expected, actual ->
                    if not (is_numeric expected && is_numeric actual) then
                      Loc.error arg.eloc "argument %s of %s: %s vs %s" p.param_name name
                        (typ_to_string expected) (typ_to_string actual))
              f.fparams args;
            f.fret)
    | Call (name, args) ->
        (* A builtin: its arguments may call user functions. *)
        type_of_expr lookup { e with edesc = Call (name, List.map (fun a -> dummy_of a (go a)) args) }
    | Index (a, idx) ->
        (* Retype the index through [go] so nested user calls are resolved. *)
        let it = go idx in
        if it <> Tint then Loc.error idx.eloc "array index must be int";
        type_of_expr lookup { e with edesc = Index (a, { idx with edesc = Int_lit 0 }) }
    | Unop (op, x) -> type_of_expr lookup { e with edesc = Unop (op, dummy_of x (go x)) }
    | Binop (op, x, y) ->
        let tx = go x and ty = go y in
        type_of_expr lookup { e with edesc = Binop (op, dummy_of x tx, dummy_of y ty) }
    | Ternary (c, a, b) ->
        let _ = go c and ta = go a and tb = go b in
        type_of_expr lookup { e with edesc = Ternary (dummy_of c Tint, dummy_of a ta, dummy_of b tb) }
    | _ -> type_of_expr lookup e
  and dummy_of orig t =
    (* A placeholder expression with a known type, standing in for an
       already-typed subexpression. *)
    match t with
    | Tint -> { orig with edesc = Int_lit 0 }
    | Tdouble -> { orig with edesc = Float_lit 0.0 }
    | Tvoid | Tarray _ -> orig
  in
  go e

type env = { prog : program; scopes : (string, typ) Hashtbl.t list ref; ret : typ }

let push env = env.scopes := Hashtbl.create 8 :: !(env.scopes)
let pop env = match !(env.scopes) with [] -> () | _ :: rest -> env.scopes := rest

let lookup env v =
  let rec go = function
    | [] -> None
    | scope :: rest -> ( match Hashtbl.find_opt scope v with Some t -> Some t | None -> go rest)
  in
  go !(env.scopes)

let declare env loc v t =
  match !(env.scopes) with
  | [] -> assert false
  | scope :: _ ->
      if Hashtbl.mem scope v then Loc.error loc "redeclaration of %s" v;
      Hashtbl.replace scope v t

let check_expr env e = type_of_expr_in env.prog (lookup env) e

let check_array_named env loc name =
  match lookup env name with
  | Some (Tarray _) -> ()
  | Some t -> Loc.error loc "directive names %s which is %s, not an array" name (typ_to_string t)
  | None -> Loc.error loc "directive names undeclared array %s" name

let check_subarray env loc (s : subarray) =
  check_array_named env loc s.sub_array;
  let check_int label = function
    | None -> ()
    | Some e ->
        let t = check_expr env e in
        if t <> Tint then Loc.error e.eloc "subarray %s bound must be int" label
  in
  check_int "start" s.sub_start;
  check_int "length" s.sub_len

let check_la_spec env loc (s : localaccess_spec) =
  check_array_named env loc s.la_array;
  List.iter
    (fun e ->
      let t = check_expr env e in
      if t <> Tint then Loc.error e.eloc "localaccess parameters must be int")
    [ s.la_stride; s.la_left; s.la_right ]

let check_clause env loc = function
  | Cdata (_, subs) -> List.iter (check_subarray env loc) subs
  | Creduction (_, vars) ->
      List.iter
        (fun v ->
          match lookup env v with
          | Some (Tint | Tdouble) -> ()
          | Some t -> Loc.error loc "scalar reduction on %s of type %s" v (typ_to_string t)
          | None -> Loc.error loc "reduction names undeclared variable %s" v)
        vars
  | Cgang _ | Cworker _ | Cvector _ | Cindependent -> ()
  | Cif cond ->
      let t = check_expr env cond in
      if not (is_numeric t) then Loc.error cond.eloc "if clause condition must be numeric"
  | Clocalaccess specs -> List.iter (check_la_spec env loc) specs

let rec strip_pragmas s = match s.sdesc with Spragma (_, inner) -> strip_pragmas inner | _ -> s

let check_directive env loc d ~(annotated : stmt) =
  match d with
  | Dparallel_loop clauses -> (
      List.iter (check_clause env loc) clauses;
      match (strip_pragmas annotated).sdesc with
      | Sfor _ -> ()
      | _ -> Loc.error loc "parallel loop directive must annotate a for statement")
  | Ddata clauses | Denter_data clauses | Dexit_data clauses ->
      List.iter (check_clause env loc) clauses
  | Dupdate_host subs | Dupdate_device subs -> List.iter (check_subarray env loc) subs
  | Dlocalaccess specs -> (
      List.iter (check_la_spec env loc) specs;
      match (strip_pragmas annotated).sdesc with
      | Sfor _ -> ()
      | _ -> Loc.error loc "localaccess directive must annotate a (parallel) for loop")
  | Dreduction_to_array { rta_array; _ } -> (
      check_array_named env loc rta_array;
      match (strip_pragmas annotated).sdesc with
      | Sassign (Lindex (a, _), _, _) when a = rta_array -> ()
      | Sassign _ ->
          Loc.error loc "reductiontoarray must annotate an assignment into array %s" rta_array
      | _ -> Loc.error loc "reductiontoarray must annotate an assignment statement")

let rec check_stmt env ~in_loop s =
  match s.sdesc with
  | Sdecl (t, name, init) -> (
      if not (is_numeric t) then
        Loc.error s.sloc "scalar declaration of %s has type %s" name (typ_to_string t);
      (match init with
      | None -> ()
      | Some e ->
          let te = check_expr env e in
          if not (is_numeric te) then Loc.error e.eloc "initializer of %s is %s" name (typ_to_string te));
      declare env s.sloc name t)
  | Sarray_decl (elem, name, len) ->
      let tl = check_expr env len in
      if tl <> Tint then Loc.error len.eloc "array length must be int";
      declare env s.sloc name (Tarray elem)
  | Sassign (lv, _, e) -> (
      let te = check_expr env e in
      if not (is_numeric te) then Loc.error e.eloc "assigned value is %s" (typ_to_string te);
      match lv with
      | Lvar v -> (
          match lookup env v with
          | Some (Tint | Tdouble) -> ()
          | Some t -> Loc.error s.sloc "assignment to %s of type %s" v (typ_to_string t)
          | None -> Loc.error s.sloc "assignment to undeclared variable %s" v)
      | Lindex (a, idx) ->
          check_array_named env s.sloc a;
          let ti = check_expr env idx in
          if ti <> Tint then Loc.error idx.eloc "array index must be int")
  | Sincr (lv, _) ->
      check_stmt env ~in_loop
        { s with sdesc = Sassign (lv, Add_set, { edesc = Int_lit 1; eloc = s.sloc }) }
  | Sexpr e -> ignore (check_expr env e)
  | Sif (c, then_, else_) ->
      ignore (check_expr env c);
      push env;
      List.iter (check_stmt env ~in_loop) then_;
      pop env;
      push env;
      List.iter (check_stmt env ~in_loop) else_;
      pop env
  | Swhile (c, body) ->
      ignore (check_expr env c);
      push env;
      List.iter (check_stmt env ~in_loop:true) body;
      pop env
  | Sfor (hdr, body) ->
      push env;
      Option.iter (check_stmt env ~in_loop) hdr.for_init;
      Option.iter (fun e -> ignore (check_expr env e)) hdr.for_cond;
      Option.iter (check_stmt env ~in_loop) hdr.for_update;
      List.iter (check_stmt env ~in_loop:true) body;
      pop env
  | Sreturn None ->
      if env.ret <> Tvoid then Loc.error s.sloc "return without value in non-void function"
  | Sreturn (Some e) ->
      if env.ret = Tvoid then Loc.error s.sloc "return with value in void function";
      let t = check_expr env e in
      if not (is_numeric t) then Loc.error e.eloc "returned value is %s" (typ_to_string t)
  | Sbreak -> if not in_loop then Loc.error s.sloc "break outside loop"
  | Scontinue -> if not in_loop then Loc.error s.sloc "continue outside loop"
  | Sblock body ->
      push env;
      List.iter (check_stmt env ~in_loop) body;
      pop env
  | Spragma (d, inner) ->
      check_directive env s.sloc d ~annotated:inner;
      check_stmt env ~in_loop inner

let check_func prog (f : func) =
  let env = { prog; scopes = ref []; ret = f.fret } in
  push env;
  List.iter (fun (p : param) -> declare env f.floc p.param_name p.param_ty) f.fparams;
  push env;
  List.iter (check_stmt env ~in_loop:false) f.fbody;
  pop env;
  pop env

let check_program prog =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (f : func) ->
      if Hashtbl.mem seen f.fname then Loc.error f.floc "duplicate function %s" f.fname;
      Hashtbl.replace seen f.fname ())
    prog.funcs;
  List.iter (check_func prog) prog.funcs
