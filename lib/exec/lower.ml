open Mgacc_minic
open Ast
open Form
module Coalesce = Mgacc_analysis.Coalesce
module Loop_info = Mgacc_analysis.Loop_info

type ctx = {
  layout : Frame.Layout.t;
  classify : string -> expr -> Coalesce.mode;
  prog : program option;  (** the program in host code, [None] in a kernel *)
  result : Frame.slot option;  (** where [return e] leaves [e] *)
  mutable sources : (int * src option) list;
      (** in a kernel, the int slots whose values over a launch have a
          source or are known to have none: the counters of the counted
          loops enclosing the code being lowered, innermost first, then
          the unwritten parameters and the parallel index *)
}

let context ?result prog layout classify = { layout; classify; prog; result; sources = [] }
let index = function Frame.Int_slot i | Frame.Float_slot i | Frame.View_slot i -> i

let ty_of ctx e =
  let lookup v = Option.map snd (Frame.Layout.lookup ctx.layout v) in
  match ctx.prog with
  | Some p -> Typecheck.type_of_expr_in p lookup e
  | None -> Typecheck.type_of_expr lookup e

let lookup ctx loc v =
  match Frame.Layout.lookup ctx.layout v with
  | Some found -> found
  | None -> Loc.error loc "kernel compilation: unbound variable %s" v

let view ctx loc a =
  match lookup ctx loc a with
  | Frame.View_slot i, Tarray elem -> (i, elem)
  | _ -> Loc.error loc "kernel compilation: %s is not an array" a

let ivar ctx slot = { slot; src = Option.join (List.assoc_opt slot ctx.sources) }
let lit ctx v = { slot = Frame.Layout.const_int ctx.layout v; src = Some (Const v) }

(* The slot an int variable or literal is read from in place. *)
let int_var ctx e =
  match e.edesc with
  | Int_lit v -> Some (lit ctx v)
  | Var v -> (
      match Frame.Layout.lookup ctx.layout v with Some (Frame.Int_slot i, _) -> Some (ivar ctx i) | _ -> None)
  | _ -> None

let slot_of = function Islot v | Ifold v -> Some v | _ -> None

let cmp_of = function
  | Eq -> Some Ceq
  | Ne -> Some Cne
  | Lt -> Some Clt
  | Le -> Some Cle
  | Gt -> Some Cgt
  | Ge -> Some Cge
  | _ -> None

let iarith_of = function
  | Add -> Some Iadd
  | Sub -> Some Isub
  | Mul -> Some Imul
  | Div -> Some Idiv
  | Mod -> Some Imod
  | Band -> Some Iand
  | Bor -> Some Ior
  | Bxor -> Some Ixor
  | Shl -> Some Ishl
  | Shr -> Some Ishr
  | _ -> None

(* A compound assignment's operator, on ints and on doubles. *)
let upd = function
  | Set -> None
  | Add_set -> Some (Iadd, Fadd)
  | Sub_set -> Some (Isub, Fsub)
  | Mul_set -> Some (Imul, Fmul)
  | Div_set -> Some (Idiv, Fdiv)

let fbuiltin = function
  | Builtins.Sqrt -> Some Fsqrt
  | Fabs -> Some Ffabs
  | Exp -> Some Fexp
  | Log -> Some Flog
  | Pow -> Some Fpow
  | Sin -> Some Fsin
  | Cos -> Some Fcos
  | Floor -> Some Ffloor
  | Ceil -> Some Fceil
  | Fmin -> Some Ffmin
  | Fmax -> Some Ffmax
  | Abs | Min | Max -> None

let flip = function Clt -> Cgt | Cle -> Cge | Cgt -> Clt | Cge -> Cle | c -> c
let plain loc op = { op; k = 0; m = 0; loc }

(* For [0 < d <= 2^61]. *)
let ceil_log2 d =
  let rec go l = if 1 lsl l >= d then l else go (l + 1) in
  go 0

(* [op] with right operand [y], at [loc]: [/] and [%] by a positive
   literal need no hardware divide (form.mli, [iarith]). *)
let iop loc op y =
  match (op, y) with
  | (Idiv | Imod), Islot { src = Some (Const d); _ } when d > 0 && Sys.int_size = 63 ->
      if d land (d - 1) = 0 then { op = (if op = Idiv then Idiv_shift else Imod_mask); k = ceil_log2 d; m = 0; loc }
      else if d <= 1 lsl 30 then
        let k = 31 + ceil_log2 d in
        { op = (if op = Idiv then Idiv_mul else Imod_mul); k; m = ((1 lsl k) + d - 1) / d; loc }
      else plain loc op
  | _ -> plain loc op

(* Whether [body] holds a [break] or [continue] that leaves it, rather
   than one that ends a loop nested inside it. *)
let rec jumps body =
  List.exists
    (fun s ->
      match s.sdesc with
      | Sbreak | Scontinue -> true
      | Sif (_, a, b) -> jumps a || jumps b
      | Sblock b -> jumps b
      | Spragma (_, inner) -> jumps [ inner ]
      | Swhile _ | Sfor _ | Sdecl _ | Sarray_decl _ | Sassign _ | Sincr _ | Sexpr _ | Sreturn _ -> false)
    body

(* Two subscripts that print alike. Those built alike from variables,
   int literals, operators and loads do, which is decided without
   printing them. *)
let same_subscript a b =
  let rec alike a b =
    match (a.edesc, b.edesc) with
    | Var x, Var y -> x = y
    | Int_lit x, Int_lit y -> x = y
    | Binop (o, x, y), Binop (o', x', y') -> o = o' && alike x x' && alike y y'
    | Index (v, i), Index (v', i') -> v = v' && alike i i'
    | _ -> false
  in
  alike a b || Pretty.expr_to_string a = Pretty.expr_to_string b

(* A [reductiontoarray(op: arr)] statement as its destination subscript
   and contribution ([a[k] += v], [a[k] = a[k] + v], [a[k] = fmax(a[k],
   v)]), or a located error. *)
let reduction op stmt =
  let loc = stmt.sloc in
  match stmt.sdesc with
  | Sassign (Lindex (arr, idx), aop, rhs) -> (
      let neg e = { edesc = Unop (Neg, e); eloc = e.eloc } in
      let is_dest e = match e.edesc with Index (a, i) -> a = arr && same_subscript i idx | _ -> false in
      match (aop, op) with
      | Add_set, Rplus -> (idx, rhs)
      | Sub_set, Rplus -> (idx, neg rhs)
      | Mul_set, Rmul -> (idx, rhs)
      | Set, _ -> (
          match rhs.edesc with
          | Binop (Add, l, r) when op = Rplus && is_dest l -> (idx, r)
          | Binop (Add, l, r) when op = Rplus && is_dest r -> (idx, l)
          | Binop (Sub, l, r) when op = Rplus && is_dest l -> (idx, neg r)
          | Binop (Mul, l, r) when op = Rmul && is_dest l -> (idx, r)
          | Binop (Mul, l, r) when op = Rmul && is_dest r -> (idx, l)
          | Call (("fmax" | "max"), [ l; r ]) when op = Rmax && is_dest l -> (idx, r)
          | Call (("fmax" | "max"), [ l; r ]) when op = Rmax && is_dest r -> (idx, l)
          | Call (("fmin" | "min"), [ l; r ]) when op = Rmin && is_dest l -> (idx, r)
          | Call (("fmin" | "min"), [ l; r ]) when op = Rmin && is_dest r -> (idx, l)
          | _ -> Loc.error loc "statement does not match a %s-reduction into %s" (redop_to_string op) arr)
      | _ -> Loc.error loc "assignment operator does not match the declared %s reduction" (redop_to_string op))
  | _ -> Loc.error loc "reductiontoarray must annotate an assignment into an array element"

(* [x*y + z], [z + x*y] or [x*y - z] over int slots. *)
let affine ctx e =
  let make m z neg =
    match m.edesc with
    | Binop (Mul, x, y) -> (
        match (int_var ctx x, int_var ctx y, int_var ctx z) with
        | Some a, Some b, Some c -> Some (Ilin (Laff { a; b; c; neg }))
        | _ -> None)
    | _ -> None
  in
  match e.edesc with
  | Binop (Add, l, r) -> ( match make l r false with None -> make r l false | a -> a)
  | Binop (Sub, l, r) -> make l r true
  | _ -> None

let rec lower_i ctx e =
  match (ty_of ctx e, e.edesc) with
  | Tdouble, _ -> Itrunc (lower_f ctx e)
  | Tint, Int_lit v -> Islot (lit ctx v)
  | Tint, Var v -> (
      match lookup ctx e.eloc v with
      | Frame.Int_slot i, _ -> Islot (ivar ctx i)
      | _ -> Loc.error e.eloc "%s is not an int variable" v)
  | Tint, Length a -> Ilen (fst (view ctx e.eloc a))
  | Tint, Index (a, idx) -> Iload (load ctx Eint a idx e.eloc)
  | Tint, Unop (Neg, x) -> Iun (Uneg, lower_i ctx x)
  | Tint, Unop (Bit_not, x) -> Iun (Ubnot, lower_i ctx x)
  | Tint, Unop (Cast_int, x) -> if ty_of ctx x = Tdouble then Iun (Ucast, lower_i ctx x) else lower_i ctx x
  | Tint, Binop (op, x, y) -> ( match iarith_of op with Some o -> arith ctx e o x y | None -> cond ctx e)
  | Tint, Unop (Not, _) -> cond ctx e
  | Tint, Ternary (c, a, b) -> Itern (cond ctx c, lower_i ctx a, lower_i ctx b)
  | Tint, Call (name, args) -> (
      match (Builtins.find name, args) with
      | Some { Builtins.op = Abs; _ }, [ x ] -> Iun (Uabs, lower_i ctx x)
      | Some { Builtins.op = (Min | Max) as op; _ }, [ x; y ] ->
          Iop { op = plain e.eloc (if op = Min then Imin else Imax); x = lower_i ctx x; y = lower_i ctx y }
      | Some _, _ -> Loc.error e.eloc "unsupported builtin arity for %s" name
      | None, _ -> Icall (call ctx e.eloc name args))
  | t, _ -> Loc.error e.eloc "expected numeric expression, got %s" (typ_to_string t)

(* An int operator: [+ - *] over two literals folds to a constant, an
   affine form is one node, and a commutative operator puts its slot
   operand on the right, which changes no order since reading a slot has
   no effect. *)
and arith ctx e o x y =
  match (o, x.edesc, y.edesc) with
  | (Iadd | Isub | Imul), Int_lit a, Int_lit b ->
      Ifold (lit ctx (match o with Iadd -> a + b | Isub -> a - b | _ -> a * b))
  | _ -> (
      match affine ctx e with
      | Some l -> l
      | None ->
          let x = lower_i ctx x and y = lower_i ctx y in
          let x, y =
            match (o, slot_of x, slot_of y) with
            | (Iadd | Imul | Iand | Ior | Ixor), Some _, None -> (y, x)
            | _ -> (x, y)
          in
          Iop { op = iop e.eloc o y; x; y })

and lower_f ctx e =
  match (ty_of ctx e, e.edesc) with
  | _, Int_lit v -> Fslot (Frame.Layout.const_float ctx.layout (float_of_int v))
  | Tint, _ -> Fint (lower_i ctx e)
  | Tdouble, Float_lit v -> Fslot (Frame.Layout.const_float ctx.layout v)
  | Tdouble, Var v -> (
      match lookup ctx e.eloc v with
      | Frame.Float_slot i, _ -> Fslot i
      | _ -> Loc.error e.eloc "%s is not a double variable" v)
  | Tdouble, Index (a, idx) -> Fload (load ctx Edouble a idx e.eloc)
  | Tdouble, Unop (Neg, x) -> Fun (Fneg, 1, lower_f ctx x)
  | Tdouble, Unop (Cast_double, x) -> lower_f ctx x
  | Tdouble, Binop (((Add | Sub | Mul | Div) as op), x, y) ->
      let k = match op with Add -> Fadd | Sub -> Fsub | Mul -> Fmul | _ -> Fdiv in
      Fbin (k, 1, lower_f ctx x, lower_f ctx y)
  | Tdouble, Ternary (c, a, b) -> Ftern (cond ctx c, lower_f ctx a, lower_f ctx b)
  | Tdouble, Call (name, args) -> (
      match Builtins.find name with
      | None -> Fcall (call ctx e.eloc name args)
      | Some b -> (
          match (fbuiltin b.Builtins.op, List.map (lower_f ctx) args) with
          | Some k, [ x ] when b.Builtins.arity = 1 -> Fun (k, b.Builtins.flops, x)
          | Some k, [ x; y ] when b.Builtins.arity = 2 -> Fbin (k, b.Builtins.flops, x, y)
          | _ -> Loc.error e.eloc "unsupported builtin arity for %s" name))
  | t, _ -> Loc.error e.eloc "expected numeric expression, got %s" (typ_to_string t)

(* A condition: non-zero in the operand's own type, so [0.5] is true. An
   int comparison has its slot operand, if it has one, on the right. *)
and cond ctx e =
  match e.edesc with
  | _ when ty_of ctx e = Tdouble -> Ftest (lower_f ctx e)
  | Binop (op, x, y) -> (
      match (cmp_of op, op) with
      | Some c, _ when ty_of ctx x = Tdouble || ty_of ctx y = Tdouble -> Fcmp (c, lower_f ctx x, lower_f ctx y)
      | Some c, _ -> (
          let x = lower_i ctx x and y = lower_i ctx y in
          match (slot_of x, slot_of y) with Some _, None -> Icmp (flip c, y, x) | _ -> Icmp (c, x, y))
      | None, Land -> Iand (cond ctx x, cond ctx y)
      | None, Lor -> Ior (cond ctx x, cond ctx y)
      | None, _ -> lower_i ctx e)
  | Unop (Not, x) -> Inot (cond ctx x)
  | _ -> lower_i ctx e

and load ctx want a idx loc =
  let view, elem = view ctx loc a in
  if elem <> want then Loc.error loc "%s is not %s array" a (if want = Eint then "an int" else "a double");
  { view; sub = sub ctx idx; mode = ctx.classify a idx }

(* The one subscript classifier: a slot, [a*b ± c], [j ± c] over two
   slots, or code. A folded literal is code, so it keeps its charge. *)
and sub ctx idx =
  match lower_i ctx idx with
  | Islot v -> Lin (Lslot v)
  | Ilin l -> Lin l
  | Iop { op = { op = (Iadd | Isub) as o; _ }; x = Islot j; y = Islot c } -> Lin (Lsum { j; c; neg = o = Isub })
  | e -> Code e

and call ctx loc name args =
  match ctx.prog with
  | None -> Loc.error loc "user function calls are not allowed in kernels: %s" name
  | Some p ->
      let f = match find_func p name with Some f -> f | None -> Loc.error loc "call to undefined function %s" name in
      if List.length args <> List.length f.fparams then Loc.error loc "function %s: arity mismatch" name;
      let arg (prm : param) (a : expr) =
        match (prm.param_ty, a.edesc) with
        | Tarray _, Var v -> Aview (fst (view ctx a.eloc v))
        | Tarray _, _ -> Loc.error a.eloc "array argument must be an array name"
        | Tdouble, _ -> Afloat (lower_f ctx a)
        | _ -> Aint (lower_i ctx a)
      in
      { name; cloc = loc; args = List.map2 arg f.fparams args }

let rec stmt ctx s =
  let loc = s.sloc in
  match s.sdesc with
  | Sdecl (Tdouble, name, init) ->
      (* The initializer sees the names in force before the declaration. *)
      let dst = index (Frame.Layout.fresh ctx.layout loc Tdouble) in
      let e = match init with Some e -> lower_f ctx e | None -> Fslot (Frame.Layout.const_float ctx.layout 0.0) in
      Frame.Layout.bind ctx.layout loc name Tdouble (Frame.Float_slot dst);
      Fset { dst; e; decl = true }
  | Sdecl (ty, name, init) -> (
      let e = match (ty, init) with Tint, Some e -> lower_i ctx e | _ -> Islot (lit ctx 0) in
      match Frame.Layout.declare ctx.layout loc name ty with
      | Frame.Int_slot i -> Iset (i, e)
      | _ -> Loc.error loc "unsupported declaration of %s" name)
  | Sarray_decl (elem, name, len) ->
      if ctx.prog = None then Loc.error loc "array declaration of %s not allowed inside a kernel" name;
      let len = lower_i ctx len in
      Array_decl { view = index (Frame.Layout.declare ctx.layout loc name (Tarray elem)); elem; name; len; aloc = loc }
  | Sassign (Lvar v, op, rhs) -> assign_var ctx loc v op rhs
  | Sassign (Lindex (a, idx), op, rhs) -> assign_index ctx loc a idx op rhs
  | Sincr (Lvar v, d) -> (
      match lookup ctx loc v with
      | Frame.Int_slot i, _ -> Iincr (i, d)
      | _ -> assign_var ctx loc v Add_set { edesc = Int_lit d; eloc = loc })
  | Sincr (Lindex (a, idx), d) -> assign_index ctx loc a idx Add_set { edesc = Int_lit d; eloc = loc }
  | Sexpr { edesc = Call (name, args); eloc } when not (Builtins.is_builtin name) -> Call (call ctx eloc name args)
  | Sexpr e -> if ty_of ctx e = Tdouble then Eval_f (lower_f ctx e) else Eval_i (lower_i ctx e)
  | Sif (c, t, f) ->
      let c = cond ctx c in
      let t = block ctx t in
      If (c, t, block ctx f)
  | Swhile (c, body) ->
      let cond = cond ctx c in
      While { cond; body = block ctx body; catch = jumps body }
  | Sfor (hdr, body) -> for_loop ctx hdr body
  | Sreturn e -> (
      if ctx.prog = None then Loc.error loc "return is not allowed inside a kernel";
      match (e, ctx.result) with
      | None, _ -> Return Rnone
      | Some e, Some (Frame.Int_slot r) -> Return (Rint (r, lower_i ctx e))
      | Some e, Some (Frame.Float_slot r) -> Return (Rfloat (r, lower_f ctx e))
      | Some _, _ -> Loc.error loc "return with a value outside a value-returning function")
  | Sbreak -> Break
  | Scontinue -> Continue
  | Sblock b -> Block (block ctx b)
  | Spragma (Dreduction_to_array { rta_op = op; rta_array }, inner) when ctx.prog = None -> (
      let idx, x = reduction op inner in
      let view, elem = view ctx loc rta_array in
      let sub = sub ctx idx in
      match elem with
      | Edouble -> Reduce_f { view; op; sub; x = lower_f ctx x }
      | Eint -> Reduce_i { view; op; sub; x = lower_i ctx x })
  | Spragma (Dreduction_to_array _, inner) ->
      (* Outside a kernel, a reduction statement is just the statement. *)
      stmt ctx inner
  | Spragma ((Dparallel_loop _ | Dlocalaccess _), inner) when ctx.prog = None ->
      (* Nested parallelism: the inner loop's iterations map to vector
         lanes, and running them in order is a valid schedule. *)
      stmt ctx inner
  | Spragma ((Dparallel_loop _ | Dlocalaccess _), inner) -> (
      match Loop_info.of_stmt ~loop_id:0 s with
      | Some loop ->
          let scope = Frame.Layout.scope ctx.layout in
          Frame.Layout.enter_scope ctx.layout;
          let iv = index (Frame.Layout.declare ctx.layout loop.Loop_info.loop_loc loop.Loop_info.loop_var Tint) in
          let body = block ctx loop.Loop_info.body in
          Frame.Layout.leave_scope ctx.layout;
          Par_loop { scope; loop; iv; body; catch = jumps loop.Loop_info.body }
      | None -> stmt ctx inner (* a localaccess stack with no parallel directive *))
  | Spragma (d, inner) ->
      if ctx.prog = None then
        Loc.error loc "directive not allowed inside a kernel body: %s" (Pretty.directive_to_string d);
      let scope = Frame.Layout.scope ctx.layout in
      Directive { scope; pragma = s; inner = stmt ctx inner }

and assign_var ctx loc v op rhs =
  match (lookup ctx loc v, upd op) with
  | (Frame.Int_slot i, _), None -> Iset (i, lower_i ctx rhs)
  | (Frame.Int_slot i, _), Some (o, _) -> Iupd (i, plain loc o, lower_i ctx rhs)
  | (Frame.Float_slot dst, _), None -> Fset { dst; e = lower_f ctx rhs; decl = false }
  | (Frame.Float_slot i, _), Some (_, o) -> Fupd (i, o, lower_f ctx rhs)
  | (Frame.View_slot _, _), _ -> Loc.error loc "cannot assign whole array %s" v

and assign_index ctx loc a idx op rhs =
  let view, elem = view ctx loc a in
  let at = { view; sub = sub ctx idx; mode = ctx.classify a idx } in
  match elem with
  | Eint -> Store_i { at; upd = Option.map (fun (o, _) -> plain loc o) (upd op); x = lower_i ctx rhs }
  | Edouble -> Store_f { at; upd = Option.map snd (upd op); x = lower_f ctx rhs }

(* [for (init; v op b; v++)] or [v--], [v] an int variable, [b] an int
   variable, literal or negated literal, and no jump out of [body]: the
   comparison, the counter's slot, the bound's slot, the step, the int ops
   each test pays besides the comparison's (1 for a negation) and, in a
   kernel, the source of [v]'s values while the body runs: known when
   [init] sets [v] to a value with a source, [b] has one, the loop counts
   towards [b] by one and no statement of the body writes [v]. *)
and counted ctx hdr body =
  match (hdr.for_cond, hdr.for_update) with
  | Some { edesc = Binop (op, ({ edesc = Var v; _ } as ve), bound); _ }, Some { sdesc = Sincr (Lvar v', step); _ }
    when v = v' && not (jumps body) -> (
      let bound, neg =
        match bound.edesc with
        | Unop (Neg, { edesc = Int_lit k; _ }) -> ({ bound with edesc = Int_lit (-k) }, 1)
        | _ -> (bound, 0)
      in
      match (cmp_of op, int_var ctx ve, int_var ctx bound) with
      | Some cmp, Some ctr, Some b ->
          let csrc =
            match (hdr.for_init, cmp, step) with
            | Some { sdesc = Sassign (Lvar x, Set, init) | Sdecl (Tint, x, Some init); _ }, (Clt | Cle), 1
            | Some { sdesc = Sassign (Lvar x, Set, init) | Sdecl (Tint, x, Some init); _ }, (Cgt | Cge), -1
              when x = v && ctx.prog = None && not (List.mem v (Mgacc_analysis.Access.written_vars body)) -> (
                match (Option.bind (int_var ctx init) (fun i -> i.src), b.src) with
                | Some init, Some bound -> Some (Ctr { init; bound; op = cmp; step })
                | _ -> None)
            | _ -> None
          in
          Some (cmp, ctr.slot, b.slot, step, neg, csrc)
      | _ -> None)
  | _ -> None

and for_loop ctx hdr body =
  Frame.Layout.enter_scope ctx.layout;
  let init = Option.map (stmt ctx) hdr.for_init in
  let s =
    match counted ctx hdr body with
    | Some (cmp, ctr, bound, step, neg, csrc) ->
        let body = match body with [ { sdesc = Sblock b; _ } ] -> b | b -> b in
        Frame.Layout.enter_scope ctx.layout;
        let outer = ctx.sources in
        if ctx.prog = None then ctx.sources <- (ctr, csrc) :: outer;
        let body = List.map (stmt ctx) body in
        ctx.sources <- outer;
        Frame.Layout.leave_scope ctx.layout;
        Counted { cmp; ctr; bound; step; neg; csrc; init; body }
    | None ->
        let cond = Option.map (cond ctx) hdr.for_cond in
        let update = Option.map (stmt ctx) hdr.for_update in
        For { init; cond; update; body = segments ctx body; catch = jumps body }
  in
  Frame.Layout.leave_scope ctx.layout;
  s

and block ctx body =
  Frame.Layout.enter_scope ctx.layout;
  let b = segments ctx body in
  Frame.Layout.leave_scope ctx.layout;
  b

(* A kernel block as segments, each up to and including the first
   statement that can jump, so a jump never leaves a later statement paid
   for; host code is one piece, and an empty block none. *)
and segments ctx body =
  let lowered = List.map (fun s -> (jumps [ s ], stmt ctx s)) body in
  let rec split cur = function
    | [] -> ( match cur with [] -> [] | cur -> [ List.rev cur ])
    | (j, s) :: rest -> if j then List.rev (s :: cur) :: split [] rest else split (s :: cur) rest
  in
  match lowered with
  | _ :: _ when ctx.prog <> None -> [ List.map snd lowered ]
  | _ -> split [] lowered

let kernel ~loop ~params ~classify =
  let layout = Frame.Layout.create () in
  let ctx = context None layout classify in
  let loop_loc = loop.Loop_info.loop_loc in
  let kiv = index (Frame.Layout.declare layout loop_loc loop.Loop_info.loop_var Tint) in
  let kparams = List.map (fun (name, ty) -> (name, Frame.Layout.declare layout loop_loc name ty, ty)) params in
  (* The parallel index and the parameters keep their bound values through
     a launch unless the body writes them. *)
  let written = Mgacc_analysis.Access.written_vars loop.Loop_info.body in
  let unwritten name = not (List.mem name written) in
  ctx.sources <-
    (kiv, if unwritten loop.Loop_info.loop_var then Some Par else None)
    :: List.filter_map
         (fun (name, slot, _) ->
           match slot with Frame.Int_slot s when unwritten name -> Some (s, Some (Fixed s)) | _ -> None)
         kparams;
  let kbody = block ctx loop.Loop_info.body in
  { klayout = layout; kiv; kparams; kbody; kcatch = jumps loop.Loop_info.body }

let host_classify _ _ = Coalesce.Coalesced

let func prog loc name =
  let f = match find_func prog name with Some f -> f | None -> Loc.error loc "call to undefined function %s" name in
  let lay = Frame.Layout.create () in
  let pslots = List.map (fun (p : param) -> Frame.Layout.declare lay f.floc p.param_name p.param_ty) f.fparams in
  let rslot = match f.fret with Tint | Tdouble -> Some (Frame.Layout.fresh lay f.floc f.fret) | _ -> None in
  (* Parameters and the body's own declarations share one scope, as in C. *)
  let code = segments (context ?result:rslot (Some prog) lay host_classify) f.fbody in
  { lay; pslots; rslot; code; names = Frame.Layout.scope lay }

let int_expr prog layout e = lower_i (context (Some prog) layout host_classify) e
let float_expr prog layout e = lower_f (context (Some prog) layout host_classify) e

(* ------------------------------------------------------------------ *)
(* Strips.                                                             *)
(* ------------------------------------------------------------------ *)

(* Whether the counter [ctr] is at most one of a subscript's factors and
   its addend. *)
let linear_once ctr = function
  | Lslot _ -> true
  | Lsum { j; c; _ } -> not (j.slot = ctr && c.slot = ctr)
  | Laff { a; b; c; _ } -> List.length (List.filter (fun v -> v.slot = ctr) [ a; b; c ]) <= 1

let strips (c : counted) =
  let scalar = function Fset { dst; _ } | Fupd (dst, _, _) -> Some dst | _ -> None in
  let dests = List.filter_map (function Reduce_f { view; _ } -> Some view | _ -> None) c.body in
  (* [e] as what a pass computes: it reads no scalar in [pending], and a
     scalar in [kept] from the strip an earlier pass left it in. *)
  let rec term pending kept = function
    | Fslot s when List.mem s pending -> None
    | Fslot s -> Some (Sleaf (if List.mem s kept then Sstrip s else Sfloat s))
    | Fload { view; sub = Lin l; _ } when linear_once c.ctr l && not (List.mem view dests) ->
        Some (Sleaf (Selem { view; sub = l; red = None }))
    | Fun (k, _, x) -> Option.map (fun x -> Sun (k, x)) (term pending kept x)
    | Fbin (k, _, x, y) -> (
        match (term pending kept x, term pending kept y) with Some x, Some y -> Some (Sbin (k, x, y)) | _ -> None)
    | Fload _ | Fint _ | Ftern _ | Fcall _ -> None
  in
  let rec reads s = function
    | Fslot s' -> s = s'
    | Fun (_, _, x) -> reads s x
    | Fbin (_, _, x, y) -> reads s x || reads s y
    | _ -> false
  in
  let read_by s = function Fset { e; _ } | Fupd (_, _, e) | Reduce_f { x = e; _ } -> reads s e | _ -> false in
  let rec go kept = function
    | [] -> Some []
    | st :: later -> (
        let term = term (List.filter_map scalar (st :: later)) kept in
        let fold dst op flip e =
          Option.map (fun e -> Sfold { dst; op; flip; e; keep = List.exists (read_by dst) later }) (term e)
        in
        let pass =
          match st with
          | Reduce_f { view; op; sub = Lin l; x } when linear_once c.ctr l ->
              Option.map (fun e -> Supdate { view; op; sub = l; e }) (term x)
          | Fset { dst; e = Fbin (((Fadd | Fsub | Fmul | Fdiv) as op), _, Fslot y, e); _ } when y = dst ->
              fold dst op false e
          | Fset { dst; e = Fbin (((Fadd | Fsub | Fmul | Fdiv) as op), _, e, Fslot y); _ } when y = dst ->
              fold dst op true e
          | Fset { dst; e; decl } -> Option.map (fun e -> Splain { dst; live = not decl; e }) (term e)
          | Fupd (dst, op, e) -> fold dst op false e
          | _ -> None
        in
        match pass with
        | None -> None
        | Some p -> Option.map (fun ps -> p :: ps) (go (Option.to_list (scalar st) @ kept) later))
  in
  let distinct l = List.length (List.sort_uniq compare l) = List.length l in
  match (c.cmp, c.step) with
  | ((Clt | Cle), 1 | (Cgt | Cge), -1) when distinct (List.filter_map scalar c.body) && distinct dests -> go [] c.body
  | _ -> None
