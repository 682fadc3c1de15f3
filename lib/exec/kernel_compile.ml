open Mgacc_minic
open Ast
module Cost = Mgacc_gpusim.Cost
module Coalesce = Mgacc_analysis.Coalesce
module Loop_info = Mgacc_analysis.Loop_info

type t = {
  run_iter : Frame.t -> int -> unit;
  make_frame : unit -> Frame.t;
  params : (string * Frame.slot * Ast.typ) list;
}

exception Brk
exception Cnt
exception Return

(* ------------------------------------------------------------------ *)
(* Reduction statement decomposition.                                  *)
(* ------------------------------------------------------------------ *)

let same_subscript a b = Pretty.expr_to_string a = Pretty.expr_to_string b

let extract_reduction op stmt =
  let loc = stmt.sloc in
  let bad fmt = Loc.error loc fmt in
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
          | _ ->
              bad "statement does not match a %s-reduction into %s" (redop_to_string op) arr)
      | _ ->
          bad "assignment operator does not match the declared %s reduction" (redop_to_string op))
  | _ -> Loc.error loc "reductiontoarray must annotate an assignment into an array element"

(* ------------------------------------------------------------------ *)
(* Compilation context.                                                *)
(* ------------------------------------------------------------------ *)

type stager = {
  directive : Frame.scope -> stmt -> (Frame.t -> unit) -> Frame.t -> unit;
  parallel_loop :
    Frame.scope -> Loop_info.t -> (Frame.t -> int -> int -> unit) -> Frame.t -> unit;
}

(* Host code: the program's functions, each compiled once, on first
   reference, into a layout of its own. Host code pays no charges. *)
type host = { prog : program; stager : stager; funcs : (string, fn) Hashtbl.t }

and fn = {
  fn_layout : Frame.Layout.t;
  fn_params : Frame.slot list;
  fn_result : Frame.slot option;
  mutable fn_body : Frame.t -> unit;  (** read at call time: recursion sees the final body *)
  mutable fn_scope : Frame.scope;  (** the names in force at the end of the body *)
}

type ctx = {
  layout : Frame.Layout.t;
  classify : string -> Ast.expr -> Coalesce.mode;
  host : host option;  (** [None] while compiling a kernel body *)
  result : Frame.slot option;  (** where [return e] leaves [e] *)
  mutable charge : Cost.t;  (** the static charge of the segment being compiled *)
  mutable scratch : int;
      (** the float slot a fused operator's loads pass through outside
          their view's read window, [-1] until one needs it *)
}

let context ?result layout classify host =
  { layout; classify; host; result; charge = Cost.zero (); scratch = -1 }

let host_classify _ _ = Coalesce.Coalesced

(* The counter of every host frame. Host code never writes it. *)
let uncharged = Cost.zero ()

let ty_of ctx e =
  let lookup v = Option.map snd (Frame.Layout.lookup ctx.layout v) in
  match ctx.host with
  | Some h -> Typecheck.type_of_expr_in h.prog lookup e
  | None -> Typecheck.type_of_expr lookup e

let slot_of ctx loc v =
  match Frame.Layout.lookup ctx.layout v with
  | Some (slot, ty) -> (slot, ty)
  | None -> Loc.error loc "kernel compilation: unbound variable %s" v

let view_slot_of ctx loc a =
  match slot_of ctx loc a with
  | Frame.View_slot i, Tarray elem -> (i, elem)
  | _ -> Loc.error loc "kernel compilation: %s is not an array" a

let fresh_float ctx loc =
  match Frame.Layout.fresh ctx.layout loc Tdouble with Frame.Float_slot i -> i | _ -> assert false

(* A fused operator reads a load outside its view's window through the
   view's accessor into this slot and takes the value out at once, so one
   slot serves every fused operator of a layout. *)
let scratch ctx =
  if ctx.scratch < 0 then ctx.scratch <- fresh_float ctx Loc.dummy;
  ctx.scratch

(* ------------------------------------------------------------------ *)
(* Charges, added to the segment being compiled.                       *)
(* ------------------------------------------------------------------ *)

(* A segment is straight-line code: a block up to and including its first
   statement that can jump, an [if] or [?:] branch, the right side of
   [&&] or [||], a loop's test, step or body. Every operation compiled
   into one runs exactly once each time it runs to its end, so its
   operations' charges add up at compile time and the segment pays their
   sum when it starts. *)

let flops ctx n =
  let c = ctx.charge in
  c.Cost.flops <- c.Cost.flops + n

let int_ops ctx n =
  let c = ctx.charge in
  c.Cost.int_ops <- c.Cost.int_ops + n

(* One array access at a site whose coalescing mode [classify] fixed when
   the site compiled. *)
let access ctx mode width =
  let c = ctx.charge in
  match mode with
  | Coalesce.Coalesced -> c.Cost.coalesced_bytes <- c.Cost.coalesced_bytes + width
  | Coalesce.Broadcast -> c.Cost.broadcast_bytes <- c.Cost.broadcast_bytes + width
  | Coalesce.Strided _ | Coalesce.Random ->
      c.Cost.random_accesses <- c.Cost.random_accesses + 1;
      c.Cost.random_bytes <- c.Cost.random_bytes + width

(* A reduction update behaves like an atomic scatter: one transaction plus
   the combine op. *)
let scatter ctx width =
  let c = ctx.charge in
  c.Cost.random_accesses <- c.Cost.random_accesses + 1;
  c.Cost.random_bytes <- c.Cost.random_bytes + width

(* [f ()] compiled as a segment of its own: its code and its charge. The
   enclosing segment's charge is untouched. *)
let in_segment ctx f =
  let outer = ctx.charge in
  ctx.charge <- Cost.zero ();
  let code = f () in
  let c = ctx.charge in
  ctx.charge <- outer;
  (code, c)

(* Adds [n] times charge [c] to counter [k], inline. *)
let[@inline] pay (k : Cost.t) (c : Cost.t) n =
  k.Cost.flops <- k.Cost.flops + (c.Cost.flops * n);
  k.Cost.int_ops <- k.Cost.int_ops + (c.Cost.int_ops * n);
  k.Cost.coalesced_bytes <- k.Cost.coalesced_bytes + (c.Cost.coalesced_bytes * n);
  k.Cost.broadcast_bytes <- k.Cost.broadcast_bytes + (c.Cost.broadcast_bytes * n);
  k.Cost.random_accesses <- k.Cost.random_accesses + (c.Cost.random_accesses * n);
  k.Cost.random_bytes <- k.Cost.random_bytes + (c.Cost.random_bytes * n)

(* [f ()] compiled as a segment that pays its charge with one add when it
   starts, or with none when the charge is zero or the code is host code. *)
let segment ctx f =
  let code, c = in_segment ctx f in
  if ctx.host <> None || Cost.is_zero c then code
  else fun fr ->
    pay fr.Frame.cost c 1;
    code fr

(* ------------------------------------------------------------------ *)
(* Operators, applied inline.                                          *)
(* ------------------------------------------------------------------ *)

let int_div loc a b =
  if b = 0 then Loc.error loc "integer division by zero";
  a / b

let int_mod loc a b =
  if b = 0 then Loc.error loc "integer modulo by zero";
  a mod b

let[@inline] iarith loc op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> int_div loc a b
  | Mod -> int_mod loc a b
  | Band -> a land b
  | Bor -> a lor b
  | Bxor -> a lxor b
  | Shl -> a lsl b
  | Shr -> a asr b
  | Eq | Ne | Lt | Le | Gt | Ge | Land | Lor -> assert false

let[@inline] farith op (a : float) b =
  match op with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Div -> a /. b
  | _ -> assert false

let[@inline] icmp op (a : int) b =
  match op with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | _ -> assert false

let[@inline] fcmp op (a : float) b =
  match op with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | _ -> assert false

let[@inline] iassign loc op old r =
  match op with
  | Set -> r
  | Add_set -> old + r
  | Sub_set -> old - r
  | Mul_set -> old * r
  | Div_set -> int_div loc old r

let[@inline] fassign op (old : float) r =
  match op with
  | Set -> r
  | Add_set -> old +. r
  | Sub_set -> old -. r
  | Mul_set -> old *. r
  | Div_set -> old /. r

(* Float.min/max, inlined so the arguments stay unboxed. *)
let[@inline] fmin (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then if Float.is_nan y then y else x
  else if Float.is_nan x then x
  else y

let[@inline] fmax (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then if Float.is_nan x then x else y
  else if Float.is_nan y then y
  else x

let[@inline] fbuiltin op (x : float) y =
  match op with
  | Builtins.Sqrt -> sqrt x
  | Fabs -> Float.abs x
  | Exp -> exp x
  | Log -> log x
  | Pow -> Float.pow x y
  | Sin -> sin x
  | Cos -> cos x
  | Floor -> floor x
  | Ceil -> ceil x
  | Fmin -> fmin x y
  | Fmax -> fmax x y
  | Abs | Min | Max -> assert false

let nop : Frame.t -> unit = fun _ -> ()

let seq fs =
  match fs with
  | [] -> nop
  | [ f ] -> f
  | [ f; g ] ->
      fun fr ->
        f fr;
        g fr
  | [ f; g; h ] ->
      fun fr ->
        f fr;
        g fr;
        h fr
  | fs ->
      let arr = Array.of_list fs in
      fun fr ->
        for k = 0 to Array.length arr - 1 do
          (Array.unsafe_get arr k) fr
        done

(* ------------------------------------------------------------------ *)
(* Operands.                                                           *)
(* ------------------------------------------------------------------ *)

(* An int operand: a slot read in place (a variable or a constant),
   [a*b + c] or [a*b - c] over three such slots (a row-major subscript,
   computed in place at an array access and charged its two int ops), or
   code returning the value. *)
type iop = Islot of int | Iaff of { a : int; b : int; c : int; neg : bool } | Icode of (Frame.t -> int)

(* A placed double operand: a slot read in place, or code that leaves the
   value in the slot. No double ever crosses a closure boundary. *)
type fop = Fslot of int | Fcode of (Frame.t -> unit) * int

(* A double operand as a float operator sees it: placed; an in-place load,
   element [sub] of the double array in view slot [view], [sub] a slot or
   an affine subscript; or a float operator over two slots or two in-place
   loads. A load or an operator is charged when it is built, and compiled
   by the operator that uses it: inside that operator's own closure where
   one of the fused shapes below matches, else placed in a temporary. *)
type fopnd = Placed of fop | Load of { view : int; sub : iop } | Arith of binop * fopnd * fopnd

(* Operators specialize on their operands' shapes when they compile: one
   closure per (slot | code) x (slot | code) pair, and one per fused shape.
   Where both operands are code, the right one runs first. *)

let[@inline] affine (is : int array) a b c neg =
  let p = Array.unsafe_get is a * Array.unsafe_get is b in
  if neg then p - Array.unsafe_get is c else p + Array.unsafe_get is c

(* Code returning an int operand's value; an affine subscript charges its
   two int ops to the segment. *)
let code_of_iop ctx = function
  | Islot s -> fun (fr : Frame.t) -> Array.unsafe_get fr.Frame.ints s
  | Iaff { a; b; c; neg } ->
      int_ops ctx 2;
      fun fr -> affine fr.Frame.ints a b c neg
  | Icode f -> f

let parts_of_fop = function Fslot s -> (nop, s) | Fcode (c, s) -> (c, s)

(* Loads: element [i] in place when [i] is in the view's read window, else
   through the view's accessor, which raises whatever a bad read raises;
   a double one passes through slot [via] of [bank] on that path. The
   in-place read keeps OCaml's bounds check: a view of the other element
   type has an empty array there, so a read through a mistyped slot raises
   instead of reading outside it. Every double load, fused or not, is
   [load_f]. *)
let[@inline] load_f (v : View.t) i (bank : float array) via =
  if i >= v.View.lo && i < v.View.hi then Array.get v.View.fdata (i - v.View.lo)
  else begin
    v.View.load_f i bank via;
    Array.unsafe_get bank via
  end

let[@inline] load_i (v : View.t) i =
  if i >= v.View.lo && i < v.View.hi then Array.get v.View.idata (i - v.View.lo) else v.View.get_i i

(* A fused load's subscript as [a*b + c] or [a*b - c]: a slot subscript
   [s] runs as [s*1 + 0], charged as a slot when the load was built. The
   two constants are allocated only here, once a fused shape matched. *)
let affine_parts ctx = function
  | Iaff { a; b; c; neg } -> (a, b, c, neg)
  | Islot s -> (s, Frame.Layout.const_int ctx.layout 1, Frame.Layout.const_int ctx.layout 0, false)
  | Icode _ -> assert false (* a load's subscript is a slot or affine *)

(* ------------------------------------------------------------------ *)
(* Expression compilation.                                             *)
(* ------------------------------------------------------------------ *)

(* The slot an int variable or literal is read from in place. *)
let int_slot ctx e =
  match e.edesc with
  | Int_lit v -> Some (Frame.Layout.const_int ctx.layout v)
  | Var v -> (
      match Frame.Layout.lookup ctx.layout v with Some (Frame.Int_slot i, _) -> Some i | _ -> None)
  | _ -> None

(* [x*y + z], [z + x*y] or [x*y - z] over int slots. *)
let affine_of ctx e =
  let make m z neg =
    match (m.edesc, int_slot ctx z) with
    | Binop (Mul, x, y), Some c -> (
        match (int_slot ctx x, int_slot ctx y) with
        | Some a, Some b -> Some (Iaff { a; b; c; neg })
        | _ -> None)
    | _ -> None
  in
  match e.edesc with
  | Binop (Add, l, r) -> ( match make l r false with None -> make r l false | op -> op)
  | Binop (Sub, l, r) -> make l r true
  | _ -> None

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
      | Swhile _ | Sfor _ | Sdecl _ | Sarray_decl _ | Sassign _ | Sincr _ | Sexpr _ | Sreturn _ ->
          false)
    body

(* A loop body's code, ending the iteration on [continue] only if it can. *)
let catch_continue body cb = if jumps body then fun fr -> try cb fr with Cnt -> () else cb

(* One iteration of a parallel loop, on every path: a jump out of it is a
   located error. *)
let iteration (loop : Loop_info.t) code =
  let loc = loop.Loop_info.loop_loc in
  if jumps loop.Loop_info.body then fun fr ->
    try code fr with Brk | Cnt -> Loc.error loc "break/continue escaping a parallel loop iteration"
  else code

(* [for (init; v op b; v++)] or [v--], [v] an int variable, [b] an int
   variable or literal, and no jump out of [body]: the comparison, the
   counter's slot, the bound's slot and the step. *)
let counted_loop ctx hdr body =
  match (hdr.for_cond, hdr.for_update) with
  | ( Some
        { edesc = Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), ({ edesc = Var v; _ } as ve), bound); _ },
      Some { sdesc = Sincr (Lvar v', d); _ } )
    when v = v' && not (jumps body) -> (
      match (int_slot ctx ve, int_slot ctx bound) with Some i, Some b -> Some (op, i, b, d) | _ -> None)
  | _ -> None

(* The value of [a + b], [a - b] or [a * b] over two int literals, which
   compiles to a constant; its user still charges its int op. [/] and [%]
   stay operators, so a division by zero is a located run-time error. *)
let fold e =
  match e.edesc with
  | Binop (((Add | Sub | Mul) as op), { edesc = Int_lit a; _ }, { edesc = Int_lit b; _ }) ->
      Some (iarith e.eloc op a b)
  | _ -> None

let rec comp_iop ctx e : iop =
  match (ty_of ctx e, e.edesc) with
  | Tint, Int_lit v -> Islot (Frame.Layout.const_int ctx.layout v)
  | Tint, Binop _ when fold e <> None ->
      int_ops ctx 1;
      Islot (Frame.Layout.const_int ctx.layout (Option.get (fold e)))
  | Tint, Var v -> (
      match slot_of ctx e.eloc v with
      | Frame.Int_slot i, _ -> Islot i
      | _ -> Loc.error e.eloc "%s is not an int variable" v)
  | Tint, Binop ((Add | Sub), _, _) -> (
      match affine_of ctx e with Some op -> op | None -> Icode (comp_i ctx e))
  | _ -> Icode (comp_i ctx e)

and comp_fop ctx e : fop =
  match (ty_of ctx e, e.edesc) with
  | Tdouble, Float_lit v -> Fslot (Frame.Layout.const_float ctx.layout v)
  | Tdouble, Var v -> (
      match slot_of ctx e.eloc v with
      | Frame.Float_slot i, _ -> Fslot i
      | _ -> Loc.error e.eloc "%s is not a double variable" v)
  | Tint, Int_lit v -> Fslot (Frame.Layout.const_float ctx.layout (float_of_int v))
  | _ ->
      let t = fresh_float ctx e.eloc in
      Fcode (comp_f_into ctx e t, t)

(* [e] as a float operator's operand: an in-place load or an operator over
   two slots or two loads is charged now and compiled by its user. *)
and comp_operand ctx e : fopnd =
  match (ty_of ctx e, e.edesc) with
  | Tdouble, Index (a, idx) -> (
      match comp_load ctx e a idx with
      | vi, ((Islot _ | Iaff _) as sub) -> Load { view = vi; sub }
      | vi, ix ->
          let t = fresh_float ctx e.eloc in
          Placed (Fcode (read_into vi ix t, t)))
  | Tdouble, Binop (((Add | Sub | Mul | Div) as op), x, y) -> (
      flops ctx 1;
      let ox = comp_operand ctx x and oy = comp_operand ctx y in
      match (ox, oy) with
      | Placed (Fslot _), Placed (Fslot _) | Load _, Load _ -> Arith (op, ox, oy)
      | _ ->
          let t = fresh_float ctx e.eloc in
          Placed (Fcode (comp_arith ctx op ox oy t, t)))
  | _ -> Placed (comp_fop ctx e)

(* A double array element: the array's view slot and the subscript,
   charged its access class, and 2 int ops for an affine subscript. *)
and comp_load ctx e a idx =
  let vi, elem = view_slot_of ctx e.eloc a in
  if elem <> Edouble then Loc.error e.eloc "%s is not a double array" a;
  let ix = comp_iop ctx idx in
  access ctx (ctx.classify a idx) 8;
  (match ix with Iaff _ -> int_ops ctx 2 | Islot _ | Icode _ -> ());
  (vi, ix)

(* Code that loads element [ix] of view [vi] into float slot [dst]. *)
and read_into vi ix dst : Frame.t -> unit =
  match ix with
  | Islot s ->
      fun fr ->
        let fl = fr.Frame.floats in
        Array.unsafe_set fl dst
          (load_f (Array.unsafe_get fr.Frame.views vi) (Array.unsafe_get fr.Frame.ints s) fl dst)
  | Iaff { a; b; c; neg } ->
      fun fr ->
        let fl = fr.Frame.floats in
        Array.unsafe_set fl dst
          (load_f (Array.unsafe_get fr.Frame.views vi) (affine fr.Frame.ints a b c neg) fl dst)
  | Icode ci ->
      fun fr ->
        let i = ci fr in
        let fl = fr.Frame.floats in
        Array.unsafe_set fl dst (load_f (Array.unsafe_get fr.Frame.views vi) i fl dst)

(* An operand placed: a load or an operator compiled into a temporary. *)
and place ctx = function
  | Placed f -> f
  | Load { view; sub } ->
      let t = fresh_float ctx Loc.dummy in
      Fcode (read_into view sub t, t)
  | Arith (op, x, y) ->
      let t = fresh_float ctx Loc.dummy in
      Fcode (comp_arith ctx op x y t, t)

(* [x op y] into float slot [dst], over operands already charged (the
   operator's flop included). Three shapes fuse into one closure, each for
   a site of the benchmark's workloads: two loads (kmeans's
   [x[i*f + j] - centers[c*f + j]]), and a slot with an operator over two
   slots or two loads (kmeans's [dist + d*d], spmv's
   [s + vals[i*k + e] * x[c]]). The right operand runs first, as in the
   placed shapes. *)
and comp_arith ctx op x y dst : Frame.t -> unit =
  match (x, y) with
  | Load lx, Load ly ->
      let xa, xb, xc, xn = affine_parts ctx lx.sub and ya, yb, yc, yn = affine_parts ctx ly.sub in
      let xv = lx.view and yv = ly.view and via = scratch ctx in
      fun fr ->
        let fl = fr.Frame.floats and is = fr.Frame.ints and vs = fr.Frame.views in
        let y = load_f (Array.unsafe_get vs yv) (affine is ya yb yc yn) fl via in
        let x = load_f (Array.unsafe_get vs xv) (affine is xa xb xc xn) fl via in
        Array.unsafe_set fl dst (farith op x y)
  | Placed (Fslot a), Arith (op2, Placed (Fslot b), Placed (Fslot c)) ->
      fun fr ->
        let fl = fr.Frame.floats in
        Array.unsafe_set fl dst
          (farith op (Array.unsafe_get fl a) (farith op2 (Array.unsafe_get fl b) (Array.unsafe_get fl c)))
  | Placed (Fslot a), Arith (op2, Load lb, Load lc) ->
      let ba, bb, bc, bn = affine_parts ctx lb.sub and ca, cb, cc, cn = affine_parts ctx lc.sub in
      let bv = lb.view and cv = lc.view and via = scratch ctx in
      fun fr ->
        let fl = fr.Frame.floats and is = fr.Frame.ints and vs = fr.Frame.views in
        let z = load_f (Array.unsafe_get vs cv) (affine is ca cb cc cn) fl via in
        let y = load_f (Array.unsafe_get vs bv) (affine is ba bb bc bn) fl via in
        Array.unsafe_set fl dst (farith op (Array.unsafe_get fl a) (farith op2 y z))
  | _ -> (
      let fx = place ctx x and fy = place ctx y in
      match (fx, fy) with
      | Fslot a, Fslot b ->
          fun fr ->
            let fl = fr.Frame.floats in
            Array.unsafe_set fl dst (farith op (Array.unsafe_get fl a) (Array.unsafe_get fl b))
      | Fcode (cx, a), Fslot b ->
          fun fr ->
            cx fr;
            let fl = fr.Frame.floats in
            Array.unsafe_set fl dst (farith op (Array.unsafe_get fl a) (Array.unsafe_get fl b))
      | Fslot a, Fcode (cy, b) ->
          fun fr ->
            cy fr;
            let fl = fr.Frame.floats in
            Array.unsafe_set fl dst (farith op (Array.unsafe_get fl a) (Array.unsafe_get fl b))
      | Fcode (cx, a), Fcode (cy, b) ->
          fun fr ->
            cy fr;
            cx fr;
            let fl = fr.Frame.floats in
            Array.unsafe_set fl dst (farith op (Array.unsafe_get fl a) (Array.unsafe_get fl b)))

(* Code that leaves the value of [e], as a double, in float slot [dst]. *)
and comp_f_into ctx e dst : Frame.t -> unit =
  match ty_of ctx e with
  | Tint -> (
      match comp_iop ctx e with
      | Islot s ->
          fun fr ->
            Array.unsafe_set fr.Frame.floats dst (float_of_int (Array.unsafe_get fr.Frame.ints s))
      | op ->
          let f = code_of_iop ctx op in
          fun fr -> Array.unsafe_set fr.Frame.floats dst (float_of_int (f fr)))
  | Tdouble -> comp_f_native ctx e dst
  | t -> Loc.error e.eloc "expected numeric expression, got %s" (typ_to_string t)

and comp_f_native ctx e dst : Frame.t -> unit =
  match e.edesc with
  | Float_lit v -> fun fr -> Array.unsafe_set fr.Frame.floats dst v
  | Var v -> (
      match slot_of ctx e.eloc v with
      | Frame.Float_slot i, _ ->
          fun fr ->
            let fl = fr.Frame.floats in
            Array.unsafe_set fl dst (Array.unsafe_get fl i)
      | _ -> Loc.error e.eloc "%s is not a double variable" v)
  | Index (a, idx) ->
      let vi, ix = comp_load ctx e a idx in
      read_into vi ix dst
  | Unop (Neg, x) -> (
      flops ctx 1;
      match comp_fop ctx x with
      | Fslot a ->
          fun fr ->
            let fl = fr.Frame.floats in
            Array.unsafe_set fl dst (-.Array.unsafe_get fl a)
      | Fcode (cx, a) ->
          fun fr ->
            cx fr;
            let fl = fr.Frame.floats in
            Array.unsafe_set fl dst (-.Array.unsafe_get fl a))
  | Unop (Cast_double, x) -> comp_f_into ctx x dst
  | Unop ((Not | Bit_not | Cast_int), _) -> assert false (* typed Tint *)
  | Binop (((Add | Sub | Mul | Div) as op), x, y) ->
      flops ctx 1;
      let ox = comp_operand ctx x and oy = comp_operand ctx y in
      comp_arith ctx op ox oy dst
  | Binop (_, _, _) -> assert false (* typed Tint *)
  | Ternary (c, a, b) ->
      int_ops ctx 1;
      let cc = comp_cond ctx c in
      let ca = segment ctx (fun () -> comp_f_into ctx a dst)
      and cb = segment ctx (fun () -> comp_f_into ctx b dst) in
      fun fr -> if cc fr then ca fr else cb fr
  | Call (name, args) -> (
      match Builtins.find name with
      | Some b when b.Builtins.result = Tdouble -> (
          flops ctx b.Builtins.flops;
          let op = b.Builtins.op in
          match List.map (comp_fop ctx) args with
          | [ x ] when b.Builtins.arity = 1 ->
              let cx, a = parts_of_fop x in
              fun fr ->
                cx fr;
                let fl = fr.Frame.floats in
                let v = Array.unsafe_get fl a in
                Array.unsafe_set fl dst (fbuiltin op v v)
          | [ x; y ] when b.Builtins.arity = 2 ->
              let cx, a = parts_of_fop x and cy, b = parts_of_fop y in
              fun fr ->
                cy fr;
                cx fr;
                let fl = fr.Frame.floats in
                let x = Array.unsafe_get fl a and y = Array.unsafe_get fl b in
                Array.unsafe_set fl dst (fbuiltin op x y)
          | _ -> Loc.error e.eloc "unsupported builtin arity for %s" name)
      | Some _ -> assert false (* int builtin: typed Tint *)
      | None -> (
          let call, fn = comp_call ctx e.eloc name args in
          match fn.fn_result with
          | Some (Frame.Float_slot r) ->
              fun fr ->
                let callee = call fr in
                Array.unsafe_set fr.Frame.floats dst (Array.unsafe_get callee.Frame.floats r)
          | _ -> assert false (* typed by the function's result *)))
  | Int_lit _ | Length _ -> assert false (* typed Tint *)

and comp_i ctx e : Frame.t -> int =
  match ty_of ctx e with
  | Tdouble -> (
      (* C-style implicit truncation. *)
      match comp_fop ctx e with
      | Fslot a -> fun fr -> int_of_float (Array.unsafe_get fr.Frame.floats a)
      | Fcode (c, a) ->
          fun fr ->
            c fr;
            int_of_float (Array.unsafe_get fr.Frame.floats a))
  | Tint -> comp_i_native ctx e
  | t -> Loc.error e.eloc "expected numeric expression, got %s" (typ_to_string t)

(* A condition: non-zero in the operand's own type, so [0.5] is true. A
   comparison or logical operator compiles straight to [bool]; the charges
   are those of the int-valued operator, and the test itself is free. *)
and comp_cond ctx e : Frame.t -> bool =
  match ty_of ctx e with
  | Tdouble -> (
      match comp_fop ctx e with
      | Fslot a -> fun fr -> Array.unsafe_get fr.Frame.floats a <> 0.0
      | Fcode (c, a) ->
          fun fr ->
            c fr;
            Array.unsafe_get fr.Frame.floats a <> 0.0)
  | _ -> (
      match e.edesc with
      | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), x, y)
        when ty_of ctx x = Tdouble || ty_of ctx y = Tdouble -> (
          flops ctx 1;
          let fx = comp_fop ctx x and fy = comp_fop ctx y in
          match (fx, fy) with
          | Fslot a, Fslot b ->
              fun fr ->
                let fl = fr.Frame.floats in
                fcmp op (Array.unsafe_get fl a) (Array.unsafe_get fl b)
          | Fcode (cx, a), Fslot b ->
              fun fr ->
                cx fr;
                let fl = fr.Frame.floats in
                fcmp op (Array.unsafe_get fl a) (Array.unsafe_get fl b)
          | Fslot a, Fcode (cy, b) ->
              fun fr ->
                cy fr;
                let fl = fr.Frame.floats in
                fcmp op (Array.unsafe_get fl a) (Array.unsafe_get fl b)
          | Fcode (cx, a), Fcode (cy, b) ->
              fun fr ->
                cy fr;
                cx fr;
                let fl = fr.Frame.floats in
                fcmp op (Array.unsafe_get fl a) (Array.unsafe_get fl b))
      | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), x, y) -> (
          int_ops ctx 1;
          let fx = comp_iop ctx x and fy = comp_iop ctx y in
          match (fx, fy) with
          | Islot a, Islot b ->
              fun fr ->
                let is = fr.Frame.ints in
                icmp op (Array.unsafe_get is a) (Array.unsafe_get is b)
          | x, Islot b ->
              let f = code_of_iop ctx x in
              fun fr -> icmp op (f fr) (Array.unsafe_get fr.Frame.ints b)
          | Islot a, y ->
              let g = code_of_iop ctx y in
              fun fr ->
                let y = g fr in
                icmp op (Array.unsafe_get fr.Frame.ints a) y
          | x, y ->
              let f = code_of_iop ctx x and g = code_of_iop ctx y in
              fun fr ->
                let y = g fr in
                let x = f fr in
                icmp op x y)
      | Binop (Land, x, y) ->
          int_ops ctx 1;
          let fx = comp_cond ctx x in
          let fy = segment ctx (fun () -> comp_cond ctx y) in
          fun fr -> fx fr && fy fr
      | Binop (Lor, x, y) ->
          int_ops ctx 1;
          let fx = comp_cond ctx x in
          let fy = segment ctx (fun () -> comp_cond ctx y) in
          fun fr -> fx fr || fy fr
      | Unop (Not, x) ->
          if ty_of ctx x = Tdouble then flops ctx 1 else int_ops ctx 1;
          let c = comp_cond ctx x in
          fun fr -> not (c fr)
      | _ -> (
          match comp_iop ctx e with
          | Islot a -> fun fr -> Array.unsafe_get fr.Frame.ints a <> 0
          | op ->
              let f = code_of_iop ctx op in
              fun fr -> f fr <> 0))

and comp_i_native ctx e : Frame.t -> int =
  match e.edesc with
  | Int_lit v -> fun _ -> v
  | Var v -> (
      match slot_of ctx e.eloc v with
      | Frame.Int_slot i, _ -> fun fr -> Array.unsafe_get fr.Frame.ints i
      | _ -> Loc.error e.eloc "%s is not an int variable" v)
  | Length a ->
      let vi, _ = view_slot_of ctx e.eloc a in
      fun fr -> (Frame.get_view fr vi).View.length
  | Index (a, idx) -> (
      let vi, elem = view_slot_of ctx e.eloc a in
      if elem <> Eint then Loc.error e.eloc "%s is not an int array" a;
      let ix = comp_iop ctx idx in
      access ctx (ctx.classify a idx) 4;
      match ix with
      | Islot s ->
          fun fr -> load_i (Array.unsafe_get fr.Frame.views vi) (Array.unsafe_get fr.Frame.ints s)
      | Iaff { a; b; c; neg } ->
          int_ops ctx 2;
          fun fr -> load_i (Array.unsafe_get fr.Frame.views vi) (affine fr.Frame.ints a b c neg)
      | Icode ci ->
          fun fr ->
            let i = ci fr in
            load_i (Array.unsafe_get fr.Frame.views vi) i)
  | Unop (Neg, x) -> (
      int_ops ctx 1;
      match comp_iop ctx x with
      | Islot a -> fun fr -> -Array.unsafe_get fr.Frame.ints a
      | op ->
          let f = code_of_iop ctx op in
          fun fr -> -f fr)
  | Unop (Bit_not, x) ->
      int_ops ctx 1;
      let f = comp_i ctx x in
      fun fr -> lnot (f fr)
  | Unop (Cast_int, x) -> (
      match ty_of ctx x with
      | Tdouble -> (
          int_ops ctx 1;
          match comp_fop ctx x with
          | Fslot a -> fun fr -> int_of_float (Array.unsafe_get fr.Frame.floats a)
          | Fcode (c, a) ->
              fun fr ->
                c fr;
                int_of_float (Array.unsafe_get fr.Frame.floats a))
      | _ -> comp_i ctx x)
  | Unop (Cast_double, _) -> assert false (* typed Tdouble *)
  | Unop (Not, _) | Binop ((Eq | Ne | Lt | Le | Gt | Ge | Land | Lor), _, _) ->
      let c = comp_cond ctx e in
      fun fr -> if c fr then 1 else 0
  | Binop _ when fold e <> None ->
      int_ops ctx 1;
      let v = Option.get (fold e) in
      fun _ -> v
  | Binop (op, x, y) -> (
      int_ops ctx 1;
      let loc = e.eloc in
      let fx = comp_iop ctx x and fy = comp_iop ctx y in
      match (fx, fy) with
      | Islot a, Islot b ->
          fun fr ->
            let is = fr.Frame.ints in
            iarith loc op (Array.unsafe_get is a) (Array.unsafe_get is b)
      | x, Islot b ->
          let f = code_of_iop ctx x in
          fun fr ->
            let x = f fr in
            iarith loc op x (Array.unsafe_get fr.Frame.ints b)
      | Islot a, y ->
          let g = code_of_iop ctx y in
          fun fr ->
            let y = g fr in
            iarith loc op (Array.unsafe_get fr.Frame.ints a) y
      | x, y ->
          let f = code_of_iop ctx x and g = code_of_iop ctx y in
          fun fr ->
            let y = g fr in
            let x = f fr in
            iarith loc op x y)
  | Ternary (c, a, b) ->
      int_ops ctx 1;
      let cc = comp_cond ctx c in
      let fa = segment ctx (fun () -> comp_i ctx a) and fb = segment ctx (fun () -> comp_i ctx b) in
      fun fr -> if cc fr then fa fr else fb fr
  | Call (name, args) -> (
      match Builtins.find name with
      | Some b when b.Builtins.result = Tint -> (
          int_ops ctx b.Builtins.flops;
          match (b.Builtins.op, List.map (comp_i ctx) args) with
          | Builtins.Abs, [ f ] -> fun fr -> abs (f fr)
          | Builtins.Min, [ f; g ] ->
              fun fr ->
                let y = g fr in
                let x = f fr in
                min x y
          | Builtins.Max, [ f; g ] ->
              fun fr ->
                let y = g fr in
                let x = f fr in
                max x y
          | _ -> Loc.error e.eloc "unsupported builtin arity for %s" name)
      | Some _ -> assert false
      | None -> (
          let call, fn = comp_call ctx e.eloc name args in
          match fn.fn_result with
          | Some (Frame.Int_slot r) -> fun fr -> Array.unsafe_get (call fr).Frame.ints r
          | _ -> assert false (* typed by the function's result *)))
  | Float_lit _ -> assert false (* typed Tdouble *)

(* A call to a user function runs its body in a fresh frame and returns
   that frame. Scalar arguments are passed by value; array arguments pass
   the view by reference, C pointer style. Functions see only their own
   frame: no lexical capture. *)
and comp_call ctx loc name args =
  let h =
    match ctx.host with
    | Some h -> h
    | None -> Loc.error loc "user function calls are not allowed in kernels: %s" name
  in
  let fn = function_of h loc name in
  if List.length args <> List.length fn.fn_params then
    Loc.error loc "function %s: arity mismatch" name;
  let bind slot (arg : expr) =
    match slot with
    | Frame.View_slot dst -> (
        match arg.edesc with
        | Var a ->
            let src, _ = view_slot_of ctx arg.eloc a in
            fun (caller : Frame.t) (callee : Frame.t) ->
              callee.Frame.views.(dst) <- caller.Frame.views.(src)
        | _ -> Loc.error arg.eloc "array argument must be an array name")
    | Frame.Int_slot dst ->
        let f = comp_i ctx arg in
        fun caller callee -> callee.Frame.ints.(dst) <- f caller
    | Frame.Float_slot dst ->
        let c, s = parts_of_fop (comp_fop ctx arg) in
        fun caller callee ->
          c caller;
          callee.Frame.floats.(dst) <- caller.Frame.floats.(s)
  in
  let binds = Array.of_list (List.map2 bind fn.fn_params args) in
  ( (fun fr ->
      let callee = Frame.create fn.fn_layout uncharged in
      Array.iter (fun b -> b fr callee) binds;
      (try fn.fn_body callee with Return -> ());
      callee),
    fn )

and function_of h loc name =
  match Hashtbl.find_opt h.funcs name with
  | Some fn -> fn
  | None ->
      let f =
        match find_func h.prog name with
        | Some f -> f
        | None -> Loc.error loc "call to undefined function %s" name
      in
      let layout = Frame.Layout.create () in
      let params =
        List.map (fun (p : param) -> Frame.Layout.declare layout f.floc p.param_name p.param_ty) f.fparams
      in
      let result =
        match f.fret with Tint | Tdouble -> Some (Frame.Layout.fresh layout f.floc f.fret) | _ -> None
      in
      let fn =
        { fn_layout = layout; fn_params = params; fn_result = result; fn_body = nop; fn_scope = Frame.Layout.scope layout }
      in
      Hashtbl.replace h.funcs name fn;
      let ctx = context ?result layout host_classify (Some h) in
      (* Parameters and the body's own declarations share one scope, as in C. *)
      fn.fn_body <- comp_block_no_scope ctx f.fbody;
      fn.fn_scope <- Frame.Layout.scope layout;
      fn

(* ------------------------------------------------------------------ *)
(* Statement compilation.                                              *)
(* ------------------------------------------------------------------ *)

and comp_stmt ctx s : Frame.t -> unit =
  match s.sdesc with
  | Sdecl (Tdouble, name, init) ->
      (* The initializer sees the names in force before the declaration and
         leaves its value straight in the new variable's slot. *)
      let slot = Frame.Layout.fresh ctx.layout s.sloc Tdouble in
      let i = match slot with Frame.Float_slot i -> i | _ -> assert false in
      let code =
        match init with
        | Some e -> comp_f_into ctx e i
        | None -> fun fr -> Array.unsafe_set fr.Frame.floats i 0.0
      in
      Frame.Layout.bind ctx.layout s.sloc name Tdouble slot;
      code
  | Sdecl (ty, name, init) -> (
      let init = match (ty, init) with Tint, Some e -> Some (comp_iop ctx e) | _ -> None in
      let slot = Frame.Layout.declare ctx.layout s.sloc name ty in
      match (slot, init) with
      | Frame.Int_slot i, None -> fun fr -> Array.unsafe_set fr.Frame.ints i 0
      | Frame.Int_slot i, Some (Islot a) ->
          fun fr ->
            let is = fr.Frame.ints in
            Array.unsafe_set is i (Array.unsafe_get is a)
      | Frame.Int_slot i, Some op ->
          let f = code_of_iop ctx op in
          fun fr -> Array.unsafe_set fr.Frame.ints i (f fr)
      | _ -> Loc.error s.sloc "unsupported declaration of %s" name)
  | Sarray_decl (elem, name, len) ->
      if ctx.host = None then
        Loc.error s.sloc "array declaration of %s not allowed inside a kernel" name;
      let cl = comp_i ctx len in
      let vi =
        match Frame.Layout.declare ctx.layout s.sloc name (Tarray elem) with
        | Frame.View_slot i -> i
        | _ -> assert false
      in
      let make =
        match elem with
        | Eint -> fun n -> View.of_int_array ~name (Array.make n 0)
        | Edouble -> fun n -> View.of_float_array ~name (Array.make n 0.0)
      in
      let loc = s.sloc in
      let too_large n = Loc.error loc "array %s: length %d is too large to allocate" name n in
      fun fr ->
        let n = cl fr in
        if n < 0 then Loc.error loc "negative array length for %s" name;
        if n > Sys.max_array_length then too_large n;
        fr.Frame.views.(vi) <- (try make n with Out_of_memory -> too_large n)
  | Sassign (Lvar v, op, rhs) -> comp_assign_var ctx s v op rhs
  | Sassign (Lindex (a, idx), op, rhs) -> comp_assign_index ctx s a idx op rhs
  | Sincr (lv, d) -> (
      match lv with
      | Lvar v -> (
          match slot_of ctx s.sloc v with
          | Frame.Int_slot i, _ ->
              int_ops ctx 1;
              fun fr ->
                let is = fr.Frame.ints in
                Array.unsafe_set is i (Array.unsafe_get is i + d)
          | _ -> comp_assign_var ctx s v Add_set { edesc = Int_lit d; eloc = s.sloc })
      | Lindex (a, idx) ->
          comp_assign_index ctx s a idx Add_set { edesc = Int_lit d; eloc = s.sloc })
  | Sexpr { edesc = Call (name, args); eloc } when not (Builtins.is_builtin name) ->
      (* Calls to void user functions are legal as statements. *)
      let call, _ = comp_call ctx eloc name args in
      fun fr -> ignore (call fr : Frame.t)
  | Sexpr e ->
      if ty_of ctx e = Tdouble then comp_f_into ctx e (fresh_float ctx e.eloc)
      else
        let f = comp_i ctx e in
        fun fr -> ignore (f fr : int)
  | Sif (c, then_, else_) -> (
      int_ops ctx 1;
      let cc = comp_cond ctx c in
      let ct = comp_block ctx then_ and ce = comp_block ctx else_ in
      match else_ with [] -> fun fr -> if cc fr then ct fr | _ -> fun fr -> if cc fr then ct fr else ce fr)
  | Swhile (c, body) ->
      let cc =
        segment ctx (fun () ->
            int_ops ctx 1;
            comp_cond ctx c)
      in
      let cb = catch_continue body (comp_block ctx body) in
      fun fr ->
        (try
           while cc fr do
             cb fr
           done
         with Brk -> ())
  | Sfor (hdr, body) -> (
      Frame.Layout.enter_scope ctx.layout;
      let init = match hdr.for_init with Some s' -> comp_stmt ctx s' | None -> nop in
      match counted_loop ctx hdr body with
      | Some (op, v, b, d) ->
          (* One OCaml loop over the counter's and the bound's slots. The
             body cannot jump, so it is one segment, and the loop pays for
             every trip at once when it ends: the body's charge plus 3 int
             ops per trip (2 for the test, the loop's and the comparison's,
             and 1 for the step), and 2 for the test that ends it. *)
          let cb, per_trip = in_segment ctx (fun () -> comp_stmts ctx body) in
          Frame.Layout.leave_scope ctx.layout;
          per_trip.Cost.int_ops <- per_trip.Cost.int_ops + 3;
          let charged = ctx.host = None in
          fun fr ->
            init fr;
            let is = fr.Frame.ints in
            let trips = ref 0 in
            while icmp op (Array.unsafe_get is v) (Array.unsafe_get is b) do
              cb fr;
              incr trips;
              Array.unsafe_set is v (Array.unsafe_get is v + d)
            done;
            if charged then begin
              let k = fr.Frame.cost in
              pay k per_trip !trips;
              k.Cost.int_ops <- k.Cost.int_ops + 2
            end
      | None ->
          let cond =
            segment ctx (fun () ->
                int_ops ctx 1;
                match hdr.for_cond with Some e -> comp_cond ctx e | None -> fun _ -> true)
          in
          let update =
            match hdr.for_update with Some s' -> segment ctx (fun () -> comp_stmt ctx s') | None -> nop
          in
          let cb = catch_continue body (comp_block_no_scope ctx body) in
          Frame.Layout.leave_scope ctx.layout;
          fun fr ->
            init fr;
            (try
               while cond fr do
                 cb fr;
                 update fr
               done
             with Brk -> ()))
  | Sreturn e -> (
      if ctx.host = None then Loc.error s.sloc "return is not allowed inside a kernel";
      match (e, ctx.result) with
      | None, _ -> fun _ -> raise Return
      | Some e, Some (Frame.Int_slot r) ->
          let f = comp_i ctx e in
          fun fr ->
            Array.unsafe_set fr.Frame.ints r (f fr);
            raise Return
      | Some e, Some (Frame.Float_slot r) ->
          let f = comp_f_into ctx e r in
          fun fr ->
            f fr;
            raise Return
      | Some _, _ -> Loc.error s.sloc "return with a value outside a value-returning function")
  | Sbreak -> fun _ -> raise Brk
  | Scontinue -> fun _ -> raise Cnt
  | Sblock body -> comp_block ctx body
  | Spragma (Dreduction_to_array { rta_op; rta_array }, inner) when ctx.host = None -> (
      let idx, contrib = extract_reduction rta_op inner in
      let vi, elem = view_slot_of ctx s.sloc rta_array in
      let ix = comp_iop ctx idx in
      match elem with
      | Edouble -> (
          flops ctx 1;
          scatter ctx 8;
          (* The contribution runs before the subscript. *)
          match (ix, comp_operand ctx contrib) with
          | Iaff { a; b; c = k; neg }, Load l ->
              (* kmeans's [newcenters[c*f + j] += x[i*f + j]]: the update reads
                 its contribution itself, staged in a temporary for
                 [reduce_f]. *)
              int_ops ctx 2;
              let la, lb, lc, ln = affine_parts ctx l.sub and lv = l.view in
              let t = fresh_float ctx s.sloc in
              fun fr ->
                let v = Array.unsafe_get fr.Frame.views vi in
                let fl = fr.Frame.floats and is = fr.Frame.ints in
                let x = load_f (Array.unsafe_get fr.Frame.views lv) (affine is la lb lc ln) fl t in
                Array.unsafe_set fl t x;
                v.View.reduce_f rta_op (affine is a b k neg) fl t
          | ix, contrib -> (
              match (ix, place ctx contrib) with
              | Islot k, Fslot c ->
                  fun fr ->
                    (Array.unsafe_get fr.Frame.views vi).View.reduce_f rta_op
                      (Array.unsafe_get fr.Frame.ints k) fr.Frame.floats c
              | Islot k, Fcode (cc, c) ->
                  fun fr ->
                    let v = Array.unsafe_get fr.Frame.views vi in
                    cc fr;
                    v.View.reduce_f rta_op (Array.unsafe_get fr.Frame.ints k) fr.Frame.floats c
              | Iaff { a; b; c = k; neg }, Fslot c ->
                  int_ops ctx 2;
                  fun fr ->
                    (Array.unsafe_get fr.Frame.views vi).View.reduce_f rta_op
                      (affine fr.Frame.ints a b k neg) fr.Frame.floats c
              | Iaff { a; b; c = k; neg }, Fcode (cc, c) ->
                  int_ops ctx 2;
                  fun fr ->
                    let v = Array.unsafe_get fr.Frame.views vi in
                    cc fr;
                    v.View.reduce_f rta_op (affine fr.Frame.ints a b k neg) fr.Frame.floats c
              | Icode ci, Fslot c ->
                  fun fr ->
                    let v = Array.unsafe_get fr.Frame.views vi in
                    v.View.reduce_f rta_op (ci fr) fr.Frame.floats c
              | Icode ci, Fcode (cc, c) ->
                  fun fr ->
                    let v = Array.unsafe_get fr.Frame.views vi in
                    cc fr;
                    v.View.reduce_f rta_op (ci fr) fr.Frame.floats c))
      | Eint ->
          int_ops ctx 1;
          scatter ctx 4;
          let ci = code_of_iop ctx ix and cf = comp_i ctx contrib in
          fun fr ->
            let v = Array.unsafe_get fr.Frame.views vi in
            let x = cf fr in
            v.View.reduce_i rta_op (ci fr) x)
  | Spragma (Dreduction_to_array _, inner) ->
      (* Outside a kernel, a reduction statement is just the statement. *)
      comp_stmt ctx inner
  | Spragma ((Dparallel_loop _ | Dlocalaccess _), inner) -> (
      match ctx.host with
      | None ->
          (* Nested parallelism: the inner loop's iterations map to vector
             lanes. Executing them in order is a valid schedule; the
             launcher separately multiplies the thread count for
             occupancy. *)
          comp_stmt ctx inner
      | Some h -> (
          match Loop_info.of_stmt ~loop_id:0 s with
          | Some loop ->
              let scope = Frame.Layout.scope ctx.layout in
              h.stager.parallel_loop scope loop (comp_sequential ctx loop)
          | None ->
              (* A localaccess stack with no parallel directive: just run it. *)
              comp_stmt ctx inner))
  | Spragma (d, inner) -> (
      match ctx.host with
      | None ->
          Loc.error s.sloc "directive not allowed inside a kernel body: %s"
            (Pretty.directive_to_string d)
      | Some h ->
          let scope = Frame.Layout.scope ctx.layout in
          h.stager.directive scope s (comp_stmt ctx inner))

(* [v op= rhs]: the right-hand side runs before the variable is read. A
   plain double assignment leaves the value straight in the variable. *)
and comp_assign_var ctx s v op rhs =
  match slot_of ctx s.sloc v with
  | Frame.Int_slot i, _ -> (
      let loc = s.sloc in
      match (op, comp_iop ctx rhs) with
      | Set, Islot a ->
          fun fr ->
            let is = fr.Frame.ints in
            Array.unsafe_set is i (Array.unsafe_get is a)
      | Set, r ->
          let f = code_of_iop ctx r in
          fun fr -> Array.unsafe_set fr.Frame.ints i (f fr)
      | _, Islot a ->
          int_ops ctx 1;
          fun fr ->
            let is = fr.Frame.ints in
            Array.unsafe_set is i (iassign loc op (Array.unsafe_get is i) (Array.unsafe_get is a))
      | _, r ->
          int_ops ctx 1;
          let f = code_of_iop ctx r in
          fun fr ->
            let r = f fr in
            let is = fr.Frame.ints in
            Array.unsafe_set is i (iassign loc op (Array.unsafe_get is i) r))
  | Frame.Float_slot i, _ -> (
      if op = Set then comp_f_into ctx rhs i
      else (
        flops ctx 1;
        match comp_fop ctx rhs with
        | Fslot a ->
            fun fr ->
              let fl = fr.Frame.floats in
              Array.unsafe_set fl i (fassign op (Array.unsafe_get fl i) (Array.unsafe_get fl a))
        | Fcode (c, a) ->
            fun fr ->
              c fr;
              let fl = fr.Frame.floats in
              Array.unsafe_set fl i (fassign op (Array.unsafe_get fl i) (Array.unsafe_get fl a))))
  | Frame.View_slot _, _ -> Loc.error s.sloc "cannot assign whole array %s" v

(* [a[idx] = rhs] evaluates the right-hand side, then the subscript;
   [a[idx] op= rhs] evaluates the subscript, then the right-hand side, then
   reads the element, and charges the read as well as the write. *)
and comp_assign_index ctx s a idx op rhs =
  let vi, elem = view_slot_of ctx s.sloc a in
  let ix = comp_iop ctx idx in
  let width = elem_ty_size elem in
  let tw = ctx.classify a idx in
  access ctx tw width;
  if op <> Set then access ctx (ctx.classify a idx) width;
  match elem with
  | Edouble -> (
      let r = comp_fop ctx rhs in
      if op = Set then
        match (ix, r) with
        | Islot k, Fslot b ->
            fun fr ->
              (Array.unsafe_get fr.Frame.views vi).View.store_f
                (Array.unsafe_get fr.Frame.ints k) fr.Frame.floats b
        | Islot k, Fcode (c, b) ->
            fun fr ->
              let v = Array.unsafe_get fr.Frame.views vi in
              c fr;
              v.View.store_f (Array.unsafe_get fr.Frame.ints k) fr.Frame.floats b
        | Iaff { a; b = y; c = z; neg }, Fslot b ->
            int_ops ctx 2;
            fun fr ->
              (Array.unsafe_get fr.Frame.views vi).View.store_f
                (affine fr.Frame.ints a y z neg) fr.Frame.floats b
        | Iaff { a; b = y; c = z; neg }, Fcode (c, b) ->
            int_ops ctx 2;
            fun fr ->
              let v = Array.unsafe_get fr.Frame.views vi in
              c fr;
              v.View.store_f (affine fr.Frame.ints a y z neg) fr.Frame.floats b
        | Icode ci, Fslot b ->
            fun fr ->
              let v = Array.unsafe_get fr.Frame.views vi in
              v.View.store_f (ci fr) fr.Frame.floats b
        | Icode ci, Fcode (c, b) ->
            fun fr ->
              let v = Array.unsafe_get fr.Frame.views vi in
              c fr;
              v.View.store_f (ci fr) fr.Frame.floats b
      else (
        flops ctx 1;
        let ci = code_of_iop ctx ix and c, b = parts_of_fop r in
        let t = fresh_float ctx s.sloc in
        fun fr ->
          let v = Array.unsafe_get fr.Frame.views vi in
          let i = ci fr in
          c fr;
          let fl = fr.Frame.floats in
          v.View.load_f i fl t;
          Array.unsafe_set fl t (fassign op (Array.unsafe_get fl t) (Array.unsafe_get fl b));
          v.View.store_f i fl t))
  | Eint -> (
      let r = comp_iop ctx rhs in
      if op = Set then
        match (ix, r) with
        | Islot k, Islot b ->
            fun fr ->
              let is = fr.Frame.ints in
              (Array.unsafe_get fr.Frame.views vi).View.set_i (Array.unsafe_get is k)
                (Array.unsafe_get is b)
        | Islot k, r ->
            let f = code_of_iop ctx r in
            fun fr ->
              let v = Array.unsafe_get fr.Frame.views vi in
              let x = f fr in
              v.View.set_i (Array.unsafe_get fr.Frame.ints k) x
        | Iaff { a; b = y; c = z; neg }, Islot b ->
            int_ops ctx 2;
            fun fr ->
              let is = fr.Frame.ints in
              (Array.unsafe_get fr.Frame.views vi).View.set_i (affine is a y z neg)
                (Array.unsafe_get is b)
        | Iaff { a; b = y; c = z; neg }, r ->
            int_ops ctx 2;
            let f = code_of_iop ctx r in
            fun fr ->
              let v = Array.unsafe_get fr.Frame.views vi in
              let x = f fr in
              v.View.set_i (affine fr.Frame.ints a y z neg) x
        | Icode ci, Islot b ->
            fun fr ->
              let v = Array.unsafe_get fr.Frame.views vi in
              v.View.set_i (ci fr) (Array.unsafe_get fr.Frame.ints b)
        | Icode ci, r ->
            let f = code_of_iop ctx r in
            fun fr ->
              let v = Array.unsafe_get fr.Frame.views vi in
              let x = f fr in
              v.View.set_i (ci fr) x
      else (
        int_ops ctx 1;
        let loc = s.sloc and ci = code_of_iop ctx ix and f = code_of_iop ctx r in
        fun fr ->
          let v = Array.unsafe_get fr.Frame.views vi in
          let i = ci fr in
          let x = f fr in
          v.View.set_i i (iassign loc op (v.View.get_i i) x)))

and comp_block ctx body =
  Frame.Layout.enter_scope ctx.layout;
  let f = comp_block_no_scope ctx body in
  Frame.Layout.leave_scope ctx.layout;
  f

and comp_stmts ctx body = seq (List.map (comp_stmt ctx) body)

(* A kernel block runs as segments, each up to and including the first
   statement that can jump, so a jump never leaves a later statement paid
   for; host code is one piece. *)
and comp_block_no_scope ctx body =
  match ctx.host with
  | Some _ -> comp_stmts ctx body
  | None ->
      let rec split cur = function
        | [] -> if cur = [] then [] else [ List.rev cur ]
        | st :: rest ->
            if jumps [ st ] then List.rev (st :: cur) :: split [] rest else split (st :: cur) rest
      in
      seq (List.map (fun stmts -> segment ctx (fun () -> comp_stmts ctx stmts)) (split [] body))

(* A parallel loop's iterations [lo, hi), run in order in the host frame
   with a fresh loop variable. *)
and comp_sequential ctx (loop : Loop_info.t) =
  Frame.Layout.enter_scope ctx.layout;
  let iv =
    match Frame.Layout.declare ctx.layout loop.Loop_info.loop_loc loop.Loop_info.loop_var Tint with
    | Frame.Int_slot i -> i
    | _ -> assert false
  in
  let body = iteration loop (comp_block ctx loop.Loop_info.body) in
  Frame.Layout.leave_scope ctx.layout;
  fun fr lo hi ->
    for i = lo to hi - 1 do
      Array.unsafe_set fr.Frame.ints iv i;
      body fr
    done

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)
(* ------------------------------------------------------------------ *)

let compile ~loop ~params ~classify =
  let layout = Frame.Layout.create () in
  let ctx = context layout classify None in
  let loop_loc = loop.Loop_info.loop_loc in
  let iv_slot = Frame.Layout.declare layout loop_loc loop.Loop_info.loop_var Tint in
  let param_slots =
    List.map (fun (name, ty) -> (name, Frame.Layout.declare layout loop_loc name ty, ty)) params
  in
  let body = iteration loop (comp_block ctx loop.Loop_info.body) in
  let iv_index = match iv_slot with Frame.Int_slot i -> i | _ -> assert false in
  {
    run_iter =
      (fun fr i ->
        Array.unsafe_set fr.Frame.ints iv_index i;
        body fr);
    make_frame = (fun () -> Frame.create layout (Cost.zero ()));
    params = param_slots;
  }

let host prog stager = { prog; stager; funcs = Hashtbl.create 8 }

let compile_function h name =
  let fn = function_of h Loc.dummy name in
  ( fn.fn_scope,
    fun () ->
      let fr = Frame.create fn.fn_layout uncharged in
      (try fn.fn_body fr with Return -> ());
      fr )

(* An expression evaluated against a live frame compiles into a layout
   above the frame's own slots and runs on a copy with room for them. *)
let eval h scope fr comp =
  let layout = Frame.layout_above scope fr in
  let code = comp (context layout host_classify (Some h)) in
  code (Frame.extend fr layout)

let eval_int h scope e fr = eval h scope fr (fun ctx -> comp_i ctx e)

let eval_float h scope e fr =
  eval h scope fr (fun ctx ->
      let c, s = parts_of_fop (comp_fop ctx e) in
      fun fr ->
        c fr;
        fr.Frame.floats.(s))
