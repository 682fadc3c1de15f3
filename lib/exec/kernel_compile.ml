open Mgacc_minic
open Ast
module Cost = Mgacc_gpusim.Cost
module Coalesce = Mgacc_analysis.Coalesce
module Loop_info = Mgacc_analysis.Loop_info

type t = {
  run_iter : Frame.t -> int -> unit;
  make_frame : unit -> Frame.t;
  prove : Frame.t -> lo:int -> hi:int -> unit;
  params : (string * Frame.slot * Ast.typ) list;
  strip_loops : int;
}

exception Brk
exception Cnt
exception Return

(* ------------------------------------------------------------------ *)
(* Reduction statement decomposition.                                  *)
(* ------------------------------------------------------------------ *)

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
  mutable strip_loops : int;  (** counted loops compiled to run over strips *)
  frame_once : bool;  (** a run builds the frame once, not per call: loops reserve strips *)
  mutable sources : (int * Strip_proof.src option) list;
      (** in a kernel, the int slots whose values over a launch have a
          source or are known to have none: the counters of the counted
          loops enclosing the code being compiled, innermost first, then
          the unwritten parameters and the parallel index *)
  mutable provers : (Frame.t -> int -> int -> unit) list;
      (** what binding a launch proves: one per strip loop with a load
          whose subscript has sources *)
}

let context ?result ?(frame_once = true) layout classify host =
  {
    layout;
    classify;
    host;
    result;
    charge = Cost.zero ();
    scratch = -1;
    strip_loops = 0;
    frame_once;
    sources = [];
    provers = [];
  }

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

(* The located division checks run inline; only the error is raised out
   of line. *)
let[@inline never] division_by_zero loc = Loc.error loc "integer division by zero"
let[@inline never] modulo_by_zero loc = Loc.error loc "integer modulo by zero"
let[@inline] int_div loc a b = if b = 0 then division_by_zero loc else a / b
let[@inline] int_mod loc a b = if b = 0 then modulo_by_zero loc else a mod b

(* An int operator as it runs, chosen when it compiles: one of C's, or [/]
   and [%] by a positive literal [d] (the right operand, still read from
   its slot) without a hardware divide. [d = 2^k] divides by a shift and
   takes the remainder by a mask ([Idiv_shift], [Imod_mask]), biasing a
   negative dividend by [d - 1] so the quotient truncates toward zero.
   Any other [d <= 2^30] divides a dividend in [\[0, 2^31)] by a
   reciprocal multiply ([Idiv_mul], [Imod_mul]): [(x * m) lsr k] with [k
   = 31 + ceil(log2 d)] and [m = ceil(2^k / d)], so [x * m < 2^63] and
   the quotient is exact (Granlund and Montgomery, "Division by Invariant
   Integers using Multiplication", PLDI 1994); other dividends use the
   hardware [/] or [mod]. A larger divisor, and a literal 0, stay plain
   [Idiv]/[Imod]. Every result is exactly [/]'s or [mod]'s. *)
type iarith =
  | Iadd
  | Isub
  | Imul
  | Idiv
  | Imod
  | Iand
  | Ior
  | Ixor
  | Ishl
  | Ishr
  | Idiv_shift
  | Imod_mask
  | Idiv_mul
  | Imod_mul

type iopr = { op : iarith; k : int; m : int; loc : Loc.t }

(* For [0 < d <= 2^61]. *)
let ceil_log2 d =
  let rec go l = if 1 lsl l >= d then l else go (l + 1) in
  go 0

(* [op] with right operand [y], at [loc]. *)
let iopr loc op y =
  let plain op = { op; k = 0; m = 0; loc } in
  match (op, y.edesc) with
  | (Div | Mod), Int_lit d when d > 0 && Sys.int_size = 63 ->
      if d land (d - 1) = 0 then
        { op = (if op = Div then Idiv_shift else Imod_mask); k = ceil_log2 d; m = 0; loc }
      else if d <= 1 lsl 30 then
        let k = 31 + ceil_log2 d in
        { op = (if op = Div then Idiv_mul else Imod_mul); k; m = ((1 lsl k) + d - 1) / d; loc }
      else plain (if op = Div then Idiv else Imod)
  | Add, _ -> plain Iadd
  | Sub, _ -> plain Isub
  | Mul, _ -> plain Imul
  | Div, _ -> plain Idiv
  | Mod, _ -> plain Imod
  | Band, _ -> plain Iand
  | Bor, _ -> plain Ior
  | Bxor, _ -> plain Ixor
  | Shl, _ -> plain Ishl
  | Shr, _ -> plain Ishr
  | (Eq | Ne | Lt | Le | Gt | Ge | Land | Lor), _ -> assert false

(* [x asr 62] is [-1] for a negative [x] and [0] otherwise. *)
let[@inline] iapply o x y =
  match o.op with
  | Iadd -> x + y
  | Isub -> x - y
  | Imul -> x * y
  | Idiv -> int_div o.loc x y
  | Imod -> int_mod o.loc x y
  | Iand -> x land y
  | Ior -> x lor y
  | Ixor -> x lxor y
  | Ishl -> x lsl y
  | Ishr -> x asr y
  | Idiv_shift -> (x + ((x asr 62) land (y - 1))) asr o.k
  | Imod_mask -> x - (((x + ((x asr 62) land (y - 1))) asr o.k) lsl o.k)
  | Idiv_mul -> if x lsr 31 = 0 then (x * o.m) lsr o.k else x / y
  | Imod_mul -> if x lsr 31 = 0 then x - (((x * o.m) lsr o.k) * y) else x mod y

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

(* A double operation as it runs, chosen when it compiles: a float
   operator ([skind_of_binop], whose callers match [+ - * /] first), a
   negation, a copy of the left operand or a builtin. A unary one reads
   its operand twice. *)
type skind = Sadd | Ssub | Smul | Sdiv | Sneg | Scopy | Sfn of Builtins.op

let skind_of_binop = function Add -> Sadd | Sub -> Ssub | Mul -> Smul | Div -> Sdiv | _ -> assert false

let[@inline] sapply k (x : float) y =
  match k with
  | Sadd -> x +. y
  | Ssub -> x -. y
  | Smul -> x *. y
  | Sdiv -> x /. y
  | Sneg -> -.x
  | Scopy -> x
  | Sfn f -> fbuiltin f x y

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
  | [ f; g; h; k ] ->
      fun fr ->
        f fr;
        g fr;
        h fr;
        k fr
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
   computed in place where it is used and charged its two int ops there),
   an operator over two slots, an in-place load (element [sub] of the int
   array in view slot [view], [sub] a slot or an affine form), or code
   returning the value. An operator or a load is charged when it is
   built, and read inside its user's closure where the user has a shape
   for it, else compiled to code. *)
type iop =
  | Islot of int
  | Iaff of { a : int; b : int; c : int; neg : bool }
  | Iarith of arith
  | Iload of { view : int; sub : iop }
  | Icode of (Frame.t -> int)

and arith = { op : iopr; x : int; y : int }

(* A placed double operand: a slot read in place, or code that leaves the
   value in the slot. No double ever crosses a closure boundary. *)
type fop = Fslot of int | Fcode of (Frame.t -> unit) * int

(* A double operand as a float operator sees it: placed; an in-place load,
   element [sub] of the double array in view slot [view], [sub] a slot or
   an affine subscript; or a float operator over two in-place loads. A
   load or an operator is charged when it is built, and compiled by the
   operator that uses it: inside that operator's own closure where the
   fused shape below matches, else placed in a temporary. *)
type fopnd = Placed of fop | Load of { view : int; sub : iop } | Arith of binop * fopnd * fopnd

(* A user reads its operands in one normal form, code and a slot: a slot
   operand's code is [nop] ([parts_of_fop]), and an int operand is code
   returning its value ([code_of_iop]). One generic closure per user
   serves every operand kind, and the right operand runs first. A user has
   a closure of its own for a shape only where a workload runs it heavily
   (the fused shape below, and those named in kernel_compile.mli). *)

let[@inline] affine (is : int array) a b c neg =
  let p = Array.unsafe_get is a * Array.unsafe_get is b in
  if neg then p - Array.unsafe_get is c else p + Array.unsafe_get is c

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

(* Stores: element [i] in place when [i] is in the view's write window,
   else through the view's accessor, which raises, marks or buffers
   whatever a write there does. Only host arrays have a non-empty write
   window. *)
let[@inline] store_f (v : View.t) i (bank : float array) s =
  if i >= v.View.lo && i < v.View.whi then
    Array.set v.View.fdata (i - v.View.lo) (Array.unsafe_get bank s)
  else v.View.store_f i bank s

let[@inline] store_i (v : View.t) i x =
  if i >= v.View.lo && i < v.View.whi then Array.set v.View.idata (i - v.View.lo) x
  else v.View.set_i i x

(* An in-place load's subscript as [a*b + c] or [a*b - c], read by the
   closure that reads the load: an affine form charges its two int ops
   here, and a slot subscript [s] runs as [s*1 + 0], charged as a slot
   when the load was built. The two constants are allocated only here,
   once a shape matched. *)
let affine_parts ctx = function
  | Iaff { a; b; c; neg } ->
      int_ops ctx 2;
      (a, b, c, neg)
  | Islot s -> (s, Frame.Layout.const_int ctx.layout 1, Frame.Layout.const_int ctx.layout 0, false)
  | Iarith _ | Iload _ | Icode _ -> assert false (* a load's subscript is a slot or affine *)

(* An operator over two slots, and an in-place load through an affine
   subscript ([affine_parts]), read inline. *)
let[@inline] arith is l = iapply l.op (Array.unsafe_get is l.x) (Array.unsafe_get is l.y)

let[@inline] load_at (fr : Frame.t) v a b c neg =
  load_i (Array.unsafe_get fr.Frame.views v) (affine fr.Frame.ints a b c neg)

(* Code returning an int operand's value. An affine form charges its two
   int ops to the segment here, where it is read, as [affine_parts] does;
   an operator or a load was charged when it was built. *)
let code_of_iop ctx = function
  | Islot s -> fun (fr : Frame.t) -> Array.unsafe_get fr.Frame.ints s
  | Iaff { a; b; c; neg } ->
      int_ops ctx 2;
      fun fr -> affine fr.Frame.ints a b c neg
  | Iarith { op; x; y } ->
      fun fr ->
        let is = fr.Frame.ints in
        iapply op (Array.unsafe_get is x) (Array.unsafe_get is y)
  | Iload { view; sub } ->
      let a, b, c, neg = affine_parts ctx sub in
      fun fr -> load_at fr view a b c neg
  | Icode f -> f

(* A subscript: a slot operator or an in-place load is code here. *)
let subscript ctx = function (Iarith _ | Iload _) as op -> Icode (code_of_iop ctx op) | op -> op

(* ------------------------------------------------------------------ *)
(* Expression compilation.                                             *)
(* ------------------------------------------------------------------ *)

(* An int test: [x op b] over a slot, a slot operator or an in-place load
   [x] and a slot [b], or code. *)
type itest = Tcmp of binop * iop * int | Tcode of (Frame.t -> bool)

(* [op] with its operands swapped: [a op b] is [b (flip op) a]. *)
let flip = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | op -> op

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

(* The source of an int variable's or literal's values over a launch,
   where one is known ({!Strip_proof.src}). *)
let source ctx e =
  match e.edesc with
  | Int_lit v -> Some (Strip_proof.Const v)
  | Var x -> (
      match Frame.Layout.lookup ctx.layout x with
      | Some (Frame.Int_slot s, _) -> Option.join (List.assoc_opt s ctx.sources)
      | _ -> None)
  | _ -> None

(* [for (init; v op b; v++)] or [v--], [v] an int variable, [b] an int
   variable, literal or negated literal, and no jump out of [body]: the
   comparison, the counter's slot, the bound's slot, the step, the int
   ops each test pays besides the comparison's (1 for a negation) and, in
   a kernel, the source of [v]'s values while the body runs: known when
   [init] sets [v] to a value with a source, [b] has one, the loop counts
   towards [b] by one and no statement of the body writes [v]. *)
let counted_loop ctx hdr body =
  match (hdr.for_cond, hdr.for_update) with
  | ( Some
        { edesc = Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), ({ edesc = Var v; _ } as ve), bound); _ },
      Some { sdesc = Sincr (Lvar v', d); _ } )
    when v = v' && not (jumps body) -> (
      let bound, neg =
        match bound.edesc with
        | Unop (Neg, { edesc = Int_lit k; _ }) -> ({ bound with edesc = Int_lit (-k) }, 1)
        | _ -> (bound, 0)
      in
      let counter =
        match (hdr.for_init, op, d) with
        | Some { sdesc = Sassign (Lvar x, Set, init) | Sdecl (Tint, x, Some init); _ }, (Lt | Le), 1
        | Some { sdesc = Sassign (Lvar x, Set, init) | Sdecl (Tint, x, Some init); _ }, (Gt | Ge), -1
          when x = v && ctx.host = None
               && not (List.mem v (Mgacc_analysis.Access.written_vars body)) -> (
            match (source ctx init, source ctx bound) with
            | Some init, Some bound -> Some (Strip_proof.Ctr { init; bound; op; step = d })
            | _ -> None)
        | _ -> None
      in
      match (int_slot ctx ve, int_slot ctx bound) with
      | Some i, Some b -> Some (op, i, b, d, neg, counter)
      | _ -> None)
  | _ -> None

(* The value of [a + b], [a - b] or [a * b] over two int literals, which
   compiles to a constant; its user still charges its int op. [/] and [%]
   stay operators, so a division by zero is a located run-time error. *)
let fold e =
  match e.edesc with
  | Binop (Add, { edesc = Int_lit a; _ }, { edesc = Int_lit b; _ }) -> Some (a + b)
  | Binop (Sub, { edesc = Int_lit a; _ }, { edesc = Int_lit b; _ }) -> Some (a - b)
  | Binop (Mul, { edesc = Int_lit a; _ }, { edesc = Int_lit b; _ }) -> Some (a * b)
  | _ -> None

(* Whether [e] is read from an int slot in place: an int variable or an
   int literal. It allocates no constant, so a shape that fails to match
   leaves none behind. *)
let is_int_slot ctx e =
  match e.edesc with
  | Int_lit _ -> true
  | Var v -> (
      match Frame.Layout.lookup ctx.layout v with Some (Frame.Int_slot _, _) -> true | _ -> false)
  | _ -> false

(* Whether [e] is an int operator over a left side that is neither a slot
   nor an affine form and a slot on the right. *)
let op_over_slot ctx e =
  match e.edesc with
  | Binop ((Add | Sub | Mul | Div | Mod | Band | Bor | Bxor | Shl | Shr), x, y) -> (
      ty_of ctx e = Tint
      && fold e = None
      && is_int_slot ctx y
      && (not (is_int_slot ctx x))
      &&
      match (e.edesc, x.edesc) with
      | Binop ((Add | Sub), _, _), Binop (Mul, a, b) -> not (is_int_slot ctx a && is_int_slot ctx b)
      | _ -> true)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Strips: a store-free counted loop, one statement at a time.          *)
(* ------------------------------------------------------------------ *)

(* An eligible loop (kernel_compile.mli) runs one statement at a time over
   strips of [strip_len] trips. A pass reads an operand at trip [t] from a
   run of the float bank ([stride] 1 for a strip, 0 for a slot the loop
   does not write), or from the double array in view slot [view] at [a*b ±
   c] with the counter at its first value, moving by the step times
   [ints.(coef)] per trip: [coef] holds 1 or -1 where the counter is [c],
   the other factor where it is [a] or [b], and 0 where it is absent. An
   entry leaves that first place in int slot [at] and the move per trip
   in [at + 1], once for all its passes. The array is the view's read
   window, or its reduction window for the destination of a reduction
   update with operator [red]. *)
let strip_len = 64

exception Not_strip

type sopnd =
  | Bank of { slot : int; stride : int }
  | Elem of {
      view : int;
      a : int;
      b : int;
      c : int;
      neg : bool;
      coef : int;
      red : redop option;
      at : int;
    }

let[@inline] sdata (fr : Frame.t) = function
  | Bank _ -> fr.Frame.floats
  | Elem l -> (
      let v = Array.unsafe_get fr.Frame.views l.view in
      match l.red with None -> v.View.fdata | Some _ -> v.View.rwin.View.rdata)

let[@inline] sstride (fr : Frame.t) = function
  | Bank b -> b.stride
  | Elem l -> Array.unsafe_get fr.Frame.ints (l.at + 1)

(* The operand's place in [sdata] at trip [t0]. *)
let[@inline] soffset (fr : Frame.t) t0 = function
  | Bank b -> b.slot
  | Elem l -> Array.unsafe_get fr.Frame.ints l.at + (t0 * Array.unsafe_get fr.Frame.ints (l.at + 1))

(* One statement over trips [t0, t0 + len): [v = k x y] at each trip,
   folded first, when [acc >= 0], into the scalar at [acc] in trip order
   ([acc op v], or [v op acc] when [flip]), and left in the strip at
   [keep] when [keep >= 0]. [pass] inlines it with constant kinds only
   for the passes a workload runs, kmeans's [d = x[..] - centers[..]] and
   [dist = dist + d*d]; any other dispatches per trip (docs/PERF.md). *)
let[@inline] pass_loop op flip k acc keep (fl : float array) (xd : float array) xo xs (yd : float array)
    yo ys len =
  let a = ref (if acc >= 0 then Array.unsafe_get fl acc else 0.0) and xi = ref xo and yi = ref yo in
  for t = 0 to len - 1 do
    let v = sapply k (Array.unsafe_get xd !xi) (Array.unsafe_get yd !yi) in
    if acc < 0 then Array.unsafe_set fl (keep + t) v
    else begin
      a := if flip then sapply op v !a else sapply op !a v;
      if keep >= 0 then Array.unsafe_set fl (keep + t) !a
    end;
    xi := !xi + xs;
    yi := !yi + ys
  done;
  if acc >= 0 then Array.unsafe_set fl acc !a

let pass op flip k x y acc keep =
  match (acc, k, flip, op) with
  | -1, Ssub, _, _ ->
      fun (fr : Frame.t) t0 len ->
        pass_loop Scopy false Ssub (-1) keep fr.Frame.floats (sdata fr x) (soffset fr t0 x)
          (sstride fr x) (sdata fr y) (soffset fr t0 y) (sstride fr y) len
  | _, Smul, false, Sadd when keep < 0 ->
      fun (fr : Frame.t) t0 len ->
        pass_loop Sadd false Smul acc (-1) fr.Frame.floats (sdata fr x) (soffset fr t0 x)
          (sstride fr x) (sdata fr y) (soffset fr t0 y) (sstride fr y) len
  | _ ->
      fun (fr : Frame.t) t0 len ->
        pass_loop op flip k acc keep fr.Frame.floats (sdata fr x) (soffset fr t0 x) (sstride fr x)
          (sdata fr y) (soffset fr t0 y) (sstride fr y) len

(* A reduction update over trips [t0, t0 + len): [k x y] at each trip
   folded with [op] into the element of [d] at that trip, in trip order,
   so a destination that does not move takes every trip's fold. [op] is
   applied as [View.apply_redop_f] applies it, unboxed. [fold_pass]
   inlines it with constant kinds only for kmeans's [newcenters[..] +=
   x[..]]; any other dispatches per trip (docs/PERF.md). *)
let[@inline] fold_loop op k (xd : float array) xi xs (yd : float array) yi ys (dd : float array) di ds len =
  let xi = ref xi and yi = ref yi and di = ref di in
  for _ = 1 to len do
    let v = sapply k (Array.unsafe_get xd !xi) (Array.unsafe_get yd !yi) in
    Array.unsafe_set dd !di (sapply op (Array.unsafe_get dd !di) v);
    xi := !xi + xs;
    yi := !yi + ys;
    di := !di + ds
  done

let fold_pass op k x y d =
  let op = match op with Rplus -> Sadd | Rmul -> Smul | Rmax -> Sfn Builtins.Fmax | Rmin -> Sfn Builtins.Fmin in
  match (op, k) with
  | Sadd, Scopy ->
      fun (fr : Frame.t) t0 len ->
        let xd = sdata fr x and xi = soffset fr t0 x and xs = sstride fr x in
        fold_loop Sadd Scopy xd xi xs xd xi xs (sdata fr d) (soffset fr t0 d) (sstride fr d) len
  | _ ->
      fun (fr : Frame.t) t0 len ->
        fold_loop op k (sdata fr x) (soffset fr t0 x) (sstride fr x) (sdata fr y) (soffset fr t0 y)
          (sstride fr y) (sdata fr d) (soffset fr t0 d) (sstride fr d) len

type strips = {
  passes : (Frame.t -> int -> int -> unit) array;
  loads : sopnd array;  (** every [Elem] a pass reads or folds into *)
  sources : (Strip_proof.src * Strip_proof.src * Strip_proof.src) option array;
      (** each load's [a], [b] and [c] over a launch, when all three are known *)
  proof : int;  (** the int slot holding a bit per load that its launch proved *)
  all : int;  (** those bits for every load, or -1 past 62 loads *)
  lasts : (int * int) array;
      (** each plainly assigned scalar declared outside the body: its slot and strip *)
  dests : int array;  (** the view slots of the reduction destinations *)
}

(* The trips of [v op b] stepping by [step] from [v0], when the body moves
   neither [v] nor [b]; a count that does not fit an int is negative. *)
let[@inline] trip_count op step v0 b =
  match (op, step) with
  | Lt, 1 when v0 < b -> b - v0
  | Le, 1 when v0 <= b -> b - v0 + 1
  | Gt, -1 when v0 > b -> v0 - b
  | Ge, -1 when v0 >= b -> v0 - b + 1
  | _ -> 0

(* Whether a destination from [k] on folds into [data]. *)
let rec folds_into (dests : int array) (fr : Frame.t) data k =
  k < Array.length dests
  && ((Array.unsafe_get fr.Frame.views (Array.unsafe_get dests k)).View.rwin.View.rdata == data
     || folds_into dests fr data (k + 1))

(* Whether elements [first] to [last] of a load lie in its view's read
   window (so in its backing array), of an array no destination folds
   into, or those of a destination in its view's reduction window, under
   an operator the window accepts. *)
let[@inline] fits dests (fr : Frame.t) o first last =
  match o with
  | Bank _ -> true
  | Elem l -> (
      let v = Array.unsafe_get fr.Frame.views l.view in
      match l.red with
      | None ->
          Array.length v.View.fdata >= v.View.hi - v.View.lo
          && first >= v.View.lo && last < v.View.hi
          && not (folds_into dests fr v.View.fdata 0)
      | Some op ->
          let w = v.View.rwin in
          (match w.View.rop with None -> true | Some o -> o = op)
          && first >= 0
          && last < Array.length w.View.rdata)

(* Whether each load from [k] on without a bit in [proven] fits on each
   of [n > 0] trips: its first and last trips' elements do, and the span
   between them cannot wrap, as [(n - 1) * s] is below 2^62. *)
let rec unproven_fit s (fr : Frame.t) n proven k =
  k = Array.length s.loads
  || ((k < 62 && proven land (1 lsl k) <> 0)
     ||
     match Array.unsafe_get s.loads k with
     | Bank _ -> true
     | Elem l as o ->
         let is = fr.Frame.ints in
         let i =
           Array.unsafe_get is l.at
           + match l.red with None -> (Array.unsafe_get fr.Frame.views l.view).View.lo | Some _ -> 0
         and st = Array.unsafe_get is (l.at + 1) in
         (st = 0 || (n <= 0x8000_0000 && st > -0x8000_0000 && st < 0x8000_0000))
         &&
         let j = i + ((n - 1) * st) in
         if j < i then fits s.dests fr o j i else fits s.dests fr o i j)
     && unproven_fit s fr n proven (k + 1)

(* An entry of [n > 0] trips stepping by [step]: sets each load's first
   place and move once for all its passes, and says whether the entry
   runs over strips, every load being proven for the launch or fitting. *)
let enter_strips s (fr : Frame.t) step n =
  let is = fr.Frame.ints in
  for k = 0 to Array.length s.loads - 1 do
    match Array.unsafe_get s.loads k with
    | Elem l ->
        let v = Array.unsafe_get fr.Frame.views l.view in
        Array.unsafe_set is l.at
          (affine is l.a l.b l.c l.neg - match l.red with None -> v.View.lo | Some _ -> 0);
        Array.unsafe_set is (l.at + 1) (step * Array.unsafe_get is l.coef)
    | Bank _ -> ()
  done;
  let proven = Array.unsafe_get is s.proof in
  proven = s.all || unproven_fit s fr n proven 0

(* Sets [s]'s proof slot in [fr], whose views and scalars are bound for a
   launch of iterations [lo, hi): a bit for each load whose every element
   on every entry fits. *)
let prove_strips s (fr : Frame.t) lo hi =
  let ints = fr.Frame.ints and bits = ref 0 in
  for k = 0 to Int.min (Array.length s.loads) 62 - 1 do
    match (Array.unsafe_get s.loads k, Array.unsafe_get s.sources k) with
    | (Elem { neg; _ } as o), Some (a, b, c) ->
        if
          fits s.dests fr o
            (Strip_proof.extent ints ~lo ~hi ~a ~b ~c ~neg ~last:false)
            (Strip_proof.extent ints ~lo ~hi ~a ~b ~c ~neg ~last:true)
        then bits := !bits lor (1 lsl k)
    | _ -> ()
  done;
  Array.unsafe_set ints s.proof !bits

(* [n > 0] trips of an entry [enter_strips] admitted: each destination's
   view is marked once, and each live plainly assigned scalar ends with
   its last trip. *)
let run_strips s (fr : Frame.t) n =
  for k = 0 to Array.length s.dests - 1 do
    (Array.unsafe_get fr.Frame.views (Array.unsafe_get s.dests k)).View.rwin.View.rtouch ()
  done;
  if n <= strip_len then
    for k = 0 to Array.length s.passes - 1 do
      (Array.unsafe_get s.passes k) fr 0 n
    done
  else begin
    let t0 = ref 0 in
    while !t0 < n do
      let len = if n - !t0 < strip_len then n - !t0 else strip_len in
      for k = 0 to Array.length s.passes - 1 do
        (Array.unsafe_get s.passes k) fr !t0 len
      done;
      t0 := !t0 + len
    done
  end;
  let fl = fr.Frame.floats and last = (n - 1) mod strip_len in
  for k = 0 to Array.length s.lasts - 1 do
    let slot, t = Array.unsafe_get s.lasts k in
    Array.unsafe_set fl slot (Array.unsafe_get fl (t + last))
  done

(* How a strip compile reserves float strips, int slots and constants: for
   real, or not at all while it only checks that a body is eligible. *)
type reserve = { strip : unit -> int; int : unit -> int; cint : int -> int; cfloat : float -> int }

(* [body], already compiled trip at a time in the current scope, as passes
   over strips, or [Not_strip]. A statement reads no scalar that it or a
   later one writes, except that [x = x op e], [x = e op x] and [x op= e]
   fold [e] into [x]; each scalar is written once. A kernel's reduction
   update folds into its array, which no other statement reduces into or
   any statement reads. Such a body cannot fault once its loads and
   destinations fit, so the passes need only its data order. *)
let strip_plan ctx rs ~counter body =
  let passes = ref [] and loads = ref [] and sources = ref [] and lasts = ref [] in
  let kept = ref [] and dests = ref [] in
  let target s =
    match s.sdesc with
    | Sdecl (Tdouble, x, _) | Sassign (Lvar x, _, _) -> x
    | Spragma (Dreduction_to_array { rta_array; _ }, _) when ctx.host = None -> rta_array
    | _ -> raise Not_strip
  in
  let float_slot x =
    match Frame.Layout.lookup ctx.layout x with Some (Frame.Float_slot i, _) -> i | _ -> raise Not_strip
  in
  (* Element [idx] of double array [a], read or, with [red], folded into,
     and its subscript's sources. A slot [s] is [s*1 + 0] here, and a
     subscript [j + c], [c + j] or [j - c] over two slots [j*1 ± c], where
     only the trip-at-a-time code charges it. *)
  let elem a idx red =
    let view =
      match Frame.Layout.lookup ctx.layout a with
      | Some (Frame.View_slot i, Tarray Edouble) -> i
      | _ -> raise Not_strip
    in
    let lit v = { edesc = Int_lit v; eloc = idx.eloc } and sl = is_int_slot ctx in
    let x, y, z, neg =
      match idx.edesc with
      | _ when sl idx -> (idx, lit 1, lit 0, false)
      | Binop (((Add | Sub) as op), { edesc = Binop (Mul, x, y); _ }, z) when sl x && sl y && sl z ->
          (x, y, z, op = Sub)
      | Binop (Add, z, { edesc = Binop (Mul, x, y); _ }) when sl x && sl y && sl z -> (x, y, z, false)
      | Binop (((Add | Sub) as op), l, r) when sl l && sl r -> (l, lit 1, r, op = Sub)
      | _ -> raise Not_strip
    in
    let slot e =
      match (e.edesc, int_slot ctx e) with Int_lit v, _ -> rs.cint v | _, Some s -> s | _ -> raise Not_strip
    in
    let a = slot x and b = slot y and c = slot z in
    let coef =
      match (a = counter, b = counter, c = counter) with
      | false, false, false -> rs.cint 0
      | true, false, false -> b
      | false, true, false -> a
      | false, false, true -> rs.cint (if neg then -1 else 1)
      | _ -> raise Not_strip
    in
    let at = rs.int () in
    ignore (rs.int () : int);
    let o = Elem { view; a; b; c; neg; coef; red; at } in
    loads := o :: !loads;
    sources :=
      (match (source ctx x, source ctx y, source ctx z) with
      | Some a, Some b, Some c -> Some (a, b, c)
      | _ -> None)
      :: !sources;
    if red <> None then dests := view :: !dests;
    o
  in
  (* [e] as what a pass computes, its operands placed. *)
  let rec term pending e =
    let leaf o = (Scopy, o, o) in
    match (ty_of ctx e, e.edesc) with
    | Tint, Int_lit v -> leaf (Bank { slot = rs.cfloat (float_of_int v); stride = 0 })
    | Tdouble, Float_lit v -> leaf (Bank { slot = rs.cfloat v; stride = 0 })
    | Tdouble, Var x when not (List.mem x pending) -> (
        match List.assoc_opt x !kept with
        | Some s -> leaf (Bank { slot = s; stride = 1 })
        | None -> leaf (Bank { slot = float_slot x; stride = 0 }))
    | Tdouble, Index (a, idx) -> leaf (elem a idx None)
    | Tdouble, Unop (Cast_double, x) -> term pending x
    | Tdouble, Unop (Neg, x) ->
        let o = value pending x in
        (Sneg, o, o)
    | Tdouble, Binop (((Add | Sub | Mul | Div) as op), x, y) ->
        (skind_of_binop op, value pending x, value pending y)
    | Tdouble, Call (name, args) -> (
        match (Builtins.find name, args) with
        | Some { Builtins.result = Tdouble; arity = 1; op; _ }, [ x ] ->
            let o = value pending x in
            (Sfn op, o, o)
        | Some { Builtins.result = Tdouble; arity = 2; op; _ }, [ x; y ] ->
            (Sfn op, value pending x, value pending y)
        | _ -> raise Not_strip)
    | _ -> raise Not_strip
  (* [e]'s value as an operand, computed into a strip of its own. *)
  and value pending e =
    match term pending e with
    | Scopy, o, _ -> o
    | k, x, y ->
        let t = rs.strip () in
        passes := pass Scopy false k x y (-1) t :: !passes;
        Bank { slot = t; stride = 1 }
  in
  let rec go = function
    | [] -> ()
    | ({ sdesc = Spragma (Dreduction_to_array { rta_op = op; rta_array = a }, inner); _ } as s) :: later ->
        let idx, e = extract_reduction op inner in
        let k, x, y = term (List.map target (s :: later)) e in
        passes := fold_pass op k x y (elem a idx (Some op)) :: !passes;
        go later
    | s :: later ->
        let x = target s in
        let pending = x :: List.map target later in
        let read_later =
          List.exists
            (fun s ->
              match s.sdesc with
              | Sdecl (_, _, Some e) | Sassign (_, _, e) | Spragma (_, { sdesc = Sassign (_, _, e); _ }) ->
                  Mgacc_analysis.Affine.mentions_var e x
              | _ -> false)
            later
        in
        let slot = float_slot x in
        (* A scalar the body declares is dead once the loop ends. *)
        let plain ~live e =
          let k, a, b = term pending e and t = rs.strip () in
          passes := pass Scopy false k a b (-1) t :: !passes;
          if live then lasts := (slot, t) :: !lasts;
          kept := (x, t) :: !kept
        in
        let fold op flip e =
          let k, a, b = term pending e and keep = if read_later then rs.strip () else -1 in
          passes := pass (skind_of_binop op) flip k a b slot keep :: !passes;
          if read_later then kept := (x, keep) :: !kept
        in
        (match s.sdesc with
        | Sdecl (_, _, init) ->
            plain ~live:false (Option.value init ~default:{ edesc = Float_lit 0.0; eloc = s.sloc })
        | Sassign (_, Set, { edesc = Binop (((Add | Sub | Mul | Div) as op), { edesc = Var y; _ }, e); _ })
          when y = x ->
            fold op false e
        | Sassign (_, Set, { edesc = Binop (((Add | Sub | Mul | Div) as op), e, { edesc = Var y; _ }); _ })
          when y = x ->
            fold op true e
        | Sassign (_, Set, e) -> plain ~live:true e
        | Sassign (_, aop, e) ->
            fold (match aop with Add_set -> Add | Sub_set -> Sub | Mul_set -> Mul | _ -> Div) false e
        | _ -> raise Not_strip);
        go later
  in
  if List.length (List.sort_uniq compare (List.map target body)) < List.length body then raise Not_strip;
  go body;
  if List.exists (function Elem { view; red = None; _ } -> List.mem view !dests | _ -> false) !loads then
    raise Not_strip;
  let arr r = Array.of_list !r and n = List.length !loads in
  {
    passes = Array.of_list (List.rev !passes);
    loads = arr loads;
    sources = arr sources;
    proof = (if ctx.host = None then rs.int () else rs.cint 0);
    all = (if n > 62 then -1 else (1 lsl n) - 1);
    lasts = arr lasts;
    dests = arr dests;
  }

(* The strips of a counted loop [v op b] stepping by [step], or [None]. A
   dry build reserving nothing comes first, so an ineligible body leaves
   the layout as it was; its slots and constants are -1, which no slot
   is. *)
let strips ctx op ~counter ~step body =
  let plan rs = match strip_plan ctx rs ~counter body with p -> Some p | exception Not_strip -> None in
  let strip () =
    let s = fresh_float ctx Loc.dummy in
    for _ = 2 to strip_len do
      ignore (fresh_float ctx Loc.dummy : int)
    done;
    s
  in
  match (op, step) with
  | ((Lt | Le), 1 | (Gt | Ge), -1)
    when Option.is_some
           (plan { strip = (fun () -> 0); int = (fun () -> -1); cint = (fun _ -> -1); cfloat = (fun _ -> -1) })
    ->
      plan
        {
          strip;
          (* [fresh] of an int is an int slot *)
          int =
            (fun () ->
              match Frame.Layout.fresh ctx.layout Loc.dummy Tint with
              | Frame.Int_slot i | Frame.Float_slot i | Frame.View_slot i -> i);
          cint = Frame.Layout.const_int ctx.layout;
          cfloat = Frame.Layout.const_float ctx.layout;
        }
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
  | Tint, Binop (((Add | Sub) as op), x, y) -> (
      match affine_of ctx e with Some aff -> aff | None -> comp_iarith ctx e op x y)
  | Tint, Binop (((Mul | Div | Mod | Band | Bor | Bxor | Shl | Shr) as op), x, y) ->
      comp_iarith ctx e op x y
  | Tint, Index (a, idx) -> (
      let vi, elem = view_slot_of ctx e.eloc a in
      if elem <> Eint then Loc.error e.eloc "%s is not an int array" a;
      let ix = subscript ctx (comp_iop ctx idx) in
      access ctx (ctx.classify a idx) 4;
      match ix with
      | Islot _ | Iaff _ -> Iload { view = vi; sub = ix }
      | _ ->
          let ci = code_of_iop ctx ix in
          Icode
            (fun fr ->
              let i = ci fr in
              load_i (Array.unsafe_get fr.Frame.views vi) i))
  | _ -> Icode (comp_i ctx e)

(* [x op y] over two int slots is an operator shape, charged now. *)
and comp_iarith ctx e op x y =
  if is_int_slot ctx x && is_int_slot ctx y then begin
    int_ops ctx 1;
    let slot e = Option.get (int_slot ctx e) in
    Iarith { op = iopr e.eloc op y; x = slot x; y = slot y }
  end
  else Icode (comp_i ctx e)

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
   two loads is charged now and compiled by its user. *)
and comp_operand ctx e : fopnd =
  match (ty_of ctx e, e.edesc) with
  | Tdouble, Index (a, idx) -> (
      match comp_load ctx e a idx with
      | vi, ((Islot _ | Iaff _) as sub) -> Load { view = vi; sub }
      | vi, ix ->
          let t = fresh_float ctx e.eloc in
          Placed (Fcode (read_into ctx vi ix t, t)))
  | Tdouble, Binop (((Add | Sub | Mul | Div) as op), x, y) -> (
      flops ctx 1;
      let ox = comp_operand ctx x and oy = comp_operand ctx y in
      match (ox, oy) with
      | Load _, Load _ -> Arith (op, ox, oy)
      | _ ->
          let t = fresh_float ctx e.eloc in
          Placed (Fcode (comp_arith ctx op ox oy t, t)))
  | _ -> Placed (comp_fop ctx e)

(* A double array element: the array's view slot and the subscript,
   charged its access class (an affine subscript pays its 2 int ops where
   it is read). *)
and comp_load ctx e a idx =
  let vi, elem = view_slot_of ctx e.eloc a in
  if elem <> Edouble then Loc.error e.eloc "%s is not a double array" a;
  let ix = subscript ctx (comp_iop ctx idx) in
  access ctx (ctx.classify a idx) 8;
  (vi, ix)

(* Code that loads element [ix] of view [vi] into float slot [dst]. *)
and read_into ctx vi ix dst : Frame.t -> unit =
  match ix with
  | Islot s ->
      fun fr ->
        let fl = fr.Frame.floats in
        Array.unsafe_set fl dst
          (load_f (Array.unsafe_get fr.Frame.views vi) (Array.unsafe_get fr.Frame.ints s) fl dst)
  | ix ->
      let ci = code_of_iop ctx ix in
      fun fr ->
        let i = ci fr in
        let fl = fr.Frame.floats in
        Array.unsafe_set fl dst (load_f (Array.unsafe_get fr.Frame.views vi) i fl dst)

(* An operand placed: a load or an operator compiled into a temporary. *)
and place ctx = function
  | Placed f -> f
  | Load { view; sub } ->
      let t = fresh_float ctx Loc.dummy in
      Fcode (read_into ctx view sub t, t)
  | Arith (op, x, y) ->
      let t = fresh_float ctx Loc.dummy in
      Fcode (comp_arith ctx op x y t, t)

(* [x op y] into float slot [dst], over operands already charged (the
   operator's flop included). One shape fuses into one closure, for a site
   of the benchmark's workloads: a slot with an operator over two loads
   (spmv's [s + vals[i*k + e] * x[c]]). The right operand runs first, as
   in the generic arm. *)
and comp_arith ctx op x y dst : Frame.t -> unit =
  let k = skind_of_binop op in
  match (x, y) with
  | Placed (Fslot a), Arith (op2, Load lb, Load lc) ->
      let ba, bb, bc, bn = affine_parts ctx lb.sub and ca, cb, cc, cn = affine_parts ctx lc.sub in
      let bv = lb.view and cv = lc.view and via = scratch ctx and k2 = skind_of_binop op2 in
      fun fr ->
        let fl = fr.Frame.floats and is = fr.Frame.ints and vs = fr.Frame.views in
        let z = load_f (Array.unsafe_get vs cv) (affine is ca cb cc cn) fl via in
        let y = load_f (Array.unsafe_get vs bv) (affine is ba bb bc bn) fl via in
        Array.unsafe_set fl dst (sapply k (Array.unsafe_get fl a) (sapply k2 y z))
  | _ ->
      let cx, a = parts_of_fop (place ctx x) and cy, b = parts_of_fop (place ctx y) in
      fun fr ->
        cy fr;
        cx fr;
        let fl = fr.Frame.floats in
        Array.unsafe_set fl dst (sapply k (Array.unsafe_get fl a) (Array.unsafe_get fl b))

(* Code that leaves the value of [e], as a double, in float slot [dst]. *)
and comp_f_into ctx e dst : Frame.t -> unit =
  match ty_of ctx e with
  | Tint ->
      let f = code_of_iop ctx (comp_iop ctx e) in
      fun fr -> Array.unsafe_set fr.Frame.floats dst (float_of_int (f fr))
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
      read_into ctx vi ix dst
  | Unop (Neg, x) ->
      flops ctx 1;
      let cx, a = parts_of_fop (comp_fop ctx x) in
      fun fr ->
        cx fr;
        let fl = fr.Frame.floats in
        Array.unsafe_set fl dst (-.Array.unsafe_get fl a)
  | Unop (Cast_double, x) -> comp_f_into ctx x dst
  | Binop (((Add | Sub | Mul | Div) as op), x, y) ->
      flops ctx 1;
      let ox = comp_operand ctx x and oy = comp_operand ctx y in
      comp_arith ctx op ox oy dst
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
  | Unop ((Not | Bit_not | Cast_int), _) | Binop _ | Int_lit _ | Length _ ->
      assert false (* typed Tint *)

and comp_i ctx e : Frame.t -> int =
  match ty_of ctx e with
  | Tdouble ->
      (* C-style implicit truncation. *)
      let c, a = parts_of_fop (comp_fop ctx e) in
      fun fr ->
        c fr;
        int_of_float (Array.unsafe_get fr.Frame.floats a)
  | Tint -> comp_i_native ctx e
  | t -> Loc.error e.eloc "expected numeric expression, got %s" (typ_to_string t)

(* A condition: non-zero in the operand's own type, so [0.5] is true. A
   comparison or logical operator compiles straight to [bool]; the charges
   are those of the int-valued operator, and the test itself is free. *)
and comp_cond ctx e : Frame.t -> bool =
  match ty_of ctx e with
  | Tdouble ->
      let c, a = parts_of_fop (comp_fop ctx e) in
      fun fr ->
        c fr;
        Array.unsafe_get fr.Frame.floats a <> 0.0
  | _ -> (
      match e.edesc with
      | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), x, y)
        when ty_of ctx x = Tdouble || ty_of ctx y = Tdouble -> (
          flops ctx 1;
          let fx = comp_fop ctx x and fy = comp_fop ctx y in
          match (fx, fy) with
          (* kmeans's [dist < best]. *)
          | Fslot a, Fslot b ->
              fun fr ->
                let fl = fr.Frame.floats in
                fcmp op (Array.unsafe_get fl a) (Array.unsafe_get fl b)
          | fx, fy ->
              let cx, a = parts_of_fop fx and cy, b = parts_of_fop fy in
              fun fr ->
                cy fr;
                cx fr;
                let fl = fr.Frame.floats in
                fcmp op (Array.unsafe_get fl a) (Array.unsafe_get fl b))
      | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), x, y) ->
          cond_of_test ctx (int_test ctx op x y)
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
      | _ ->
          let f = code_of_iop ctx (comp_iop ctx e) in
          fun fr -> f fr <> 0)

(* An int comparison [x op y], charged. A slot, a slot operator or an
   in-place load against a slot is left to its user to read (bfs's
   [levels[i] == level], spmv's [c >= 0], the generators' [seed % 10 <
   8]); a slot against an operator or a load is turned around to that
   shape (kmeans's [bc != membership[i]]), as reading a slot has no
   effect. Anything else is code. *)
and int_test ctx op x y =
  int_ops ctx 1;
  let fx = comp_iop ctx x and fy = comp_iop ctx y in
  match (fx, fy) with
  | (Islot _ | Iarith _ | Iload _), Islot b -> Tcmp (op, fx, b)
  | Islot a, (Iarith _ | Iload _) -> Tcmp (flip op, fy, a)
  | x, y ->
      let f = code_of_iop ctx x and g = code_of_iop ctx y in
      Tcode
        (fun fr ->
          let y = g fr in
          let x = f fr in
          icmp op x y)

(* A test as code. *)
and cond_of_test ctx = function
  | Tcmp (op, Islot a, b) ->
      fun fr ->
        let is = fr.Frame.ints in
        icmp op (Array.unsafe_get is a) (Array.unsafe_get is b)
  | Tcmp (op, x, b) ->
      let f = code_of_iop ctx x in
      fun fr -> icmp op (f fr) (Array.unsafe_get fr.Frame.ints b)
  | Tcode c -> c

(* A condition as an [if] sees it: an int comparison of a shape with a
   slot, or code. *)
and comp_test ctx e =
  match e.edesc with
  | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), x, y)
    when ty_of ctx x <> Tdouble && ty_of ctx y <> Tdouble ->
      int_test ctx op x y
  | _ -> Tcode (comp_cond ctx e)

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
  | Index _ -> code_of_iop ctx (comp_iop ctx e)
  | Unop (Neg, x) ->
      int_ops ctx 1;
      let f = code_of_iop ctx (comp_iop ctx x) in
      fun fr -> -f fr
  | Unop (Bit_not, x) ->
      int_ops ctx 1;
      let f = comp_i ctx x in
      fun fr -> lnot (f fr)
  | Unop (Cast_int, x) ->
      (* A double truncates as [comp_i] truncates it, for one int op. *)
      if ty_of ctx x = Tdouble then int_ops ctx 1;
      comp_i ctx x
  | Unop (Not, _) | Binop ((Eq | Ne | Lt | Le | Gt | Ge | Land | Lor), _, _) ->
      let c = comp_cond ctx e in
      fun fr -> if c fr then 1 else 0
  | Binop _ when fold e <> None ->
      int_ops ctx 1;
      let v = Option.get (fold e) in
      fun _ -> v
  | Binop (op, x, y) -> (
      int_ops ctx 1;
      let o = iopr e.eloc op y in
      let fx = comp_iop ctx x and fy = comp_iop ctx y in
      match (fx, fy) with
      | Islot a, Islot b ->
          fun fr ->
            let is = fr.Frame.ints in
            iapply o (Array.unsafe_get is a) (Array.unsafe_get is b)
      (* An operator over two slot operators, bfs's [(i + 1) + seed % 2000]. *)
      | Iarith l, Iarith r ->
          fun fr ->
            let is = fr.Frame.ints in
            let y = arith is r in
            iapply o (arith is l) y
      (* Code over a slot, bfs's [(i + 1) % n], spmv's [(i + 1 + seed % 500) % n]. *)
      | x, Islot b ->
          let f = code_of_iop ctx x in
          fun fr ->
            let x = f fr in
            iapply o x (Array.unsafe_get fr.Frame.ints b)
      | x, y ->
          let f = code_of_iop ctx x and g = code_of_iop ctx y in
          fun fr ->
            let y = g fr in
            let x = f fr in
            iapply o x y)
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
  | Unop (Cast_double, _) | Float_lit _ -> assert false (* typed Tdouble *)

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

and function_of ?(entry = false) h loc name =
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
      let ctx = context ?result ~frame_once:entry layout host_classify (Some h) in
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
      let i = fresh_float ctx s.sloc in
      let code =
        match init with
        | Some e -> comp_f_into ctx e i
        | None -> fun fr -> Array.unsafe_set fr.Frame.floats i 0.0
      in
      Frame.Layout.bind ctx.layout s.sloc name Tdouble (Frame.Float_slot i);
      code
  | Sdecl (ty, name, init) -> (
      let init = match (ty, init) with Tint, Some e -> Some (comp_iop ctx e) | _ -> None in
      let slot = Frame.Layout.declare ctx.layout s.sloc name ty in
      match (slot, init) with
      | Frame.Int_slot i, None -> fun fr -> Array.unsafe_set fr.Frame.ints i 0
      | Frame.Int_slot i, Some op -> set_iop ctx op i
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
      let test = comp_test ctx c in
      let ct = comp_block ctx then_ and ce = comp_block ctx else_ in
      (* Tested in the [if]'s own closure: a slot with a slot (spmv's [c
         >= 0]; bfs's [e == 0] and spmv's [pad == 0], with an [else]), a
         slot operator with a slot and an [else] (bfs's [seed % 10 < 8]),
         and a load with a slot and no [else] (bfs's [levels[i] == level],
         kmeans's [bc != membership[i]]). *)
      match (test, else_) with
      | Tcmp (op, Islot a, b), [] ->
          fun fr ->
            let is = fr.Frame.ints in
            if icmp op (Array.unsafe_get is a) (Array.unsafe_get is b) then ct fr
      | Tcmp (op, Islot a, b), _ ->
          fun fr ->
            let is = fr.Frame.ints in
            if icmp op (Array.unsafe_get is a) (Array.unsafe_get is b) then ct fr else ce fr
      | Tcmp (op, Iarith l, b), _ :: _ ->
          fun fr ->
            let is = fr.Frame.ints in
            if icmp op (arith is l) (Array.unsafe_get is b)
            then ct fr
            else ce fr
      | Tcmp (op, Iload l, b), [] ->
          let la, lb, lc, ln = affine_parts ctx l.sub and lv = l.view in
          fun fr ->
            let is = fr.Frame.ints in
            if icmp op (load_at fr lv la lb lc ln) (Array.unsafe_get is b)
            then ct fr
      | test, [] ->
          let cc = cond_of_test ctx test in
          fun fr -> if cc fr then ct fr
      | test, _ ->
          let cc = cond_of_test ctx test in
          fun fr -> if cc fr then ct fr else ce fr)
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
      | Some (op, v, b, d, neg, counter) -> (
          (* One OCaml loop over the counter's and the bound's slots, or
             strips (kernel_compile.mli). The body cannot jump, so it is one
             segment, paid for every trip at once when the loop ends: its
             charge plus 3 int ops per trip (the loop's and the comparison's
             tests, the step), and 2 for the test that ends it; a negated
             bound adds its negation to each test. *)
          let body = match body with [ { sdesc = Sblock b; _ } ] -> b | b -> b in
          Frame.Layout.enter_scope ctx.layout;
          let outer = ctx.sources in
          if ctx.host = None then ctx.sources <- (v, counter) :: outer;
          let cb, per_trip = in_segment ctx (fun () -> comp_stmts ctx body) in
          let strips = if ctx.frame_once then strips ctx op ~counter:v ~step:d body else None in
          ctx.sources <- outer;
          Frame.Layout.leave_scope ctx.layout;
          Frame.Layout.leave_scope ctx.layout;
          per_trip.Cost.int_ops <- per_trip.Cost.int_ops + 3 + neg;
          Option.iter
            (fun s ->
              ctx.strip_loops <- ctx.strip_loops + 1;
              if ctx.host = None && Array.exists Option.is_some s.sources then
                ctx.provers <- prove_strips s :: ctx.provers)
            strips;
          let charged = ctx.host = None in
          let pay_trips (fr : Frame.t) n =
            if charged then begin
              let k = fr.Frame.cost in
              pay k per_trip n;
              k.Cost.int_ops <- k.Cost.int_ops + 2 + neg
            end
          in
          let one_at_a_time (fr : Frame.t) =
            let is = fr.Frame.ints in
            let trips = ref 0 in
            while icmp op (Array.unsafe_get is v) (Array.unsafe_get is b) do
              cb fr;
              incr trips;
              Array.unsafe_set is v (Array.unsafe_get is v + d)
            done;
            pay_trips fr !trips
          in
          match strips with
          | None ->
              fun fr ->
                init fr;
                one_at_a_time fr
          | Some s ->
              fun fr ->
                init fr;
                let is = fr.Frame.ints in
                let v0 = Array.unsafe_get is v in
                let n = trip_count op d v0 (Array.unsafe_get is b) in
                if n > 1 && enter_strips s fr d n then begin
                  run_strips s fr n;
                  Array.unsafe_set is v (v0 + (n * d));
                  pay_trips fr n
                end
                else one_at_a_time fr)
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
      let ix = subscript ctx (comp_iop ctx idx) in
      match elem with
      | Edouble ->
          flops ctx 1;
          scatter ctx 8;
          (* The contribution runs before the subscript. *)
          let cc, c = parts_of_fop (place ctx (comp_operand ctx contrib)) in
          let ci = code_of_iop ctx ix in
          fun fr ->
            let v = Array.unsafe_get fr.Frame.views vi in
            cc fr;
            v.View.reduce_f rta_op (ci fr) fr.Frame.floats c
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

(* Code that leaves the value of int expression [e] in slot [dst]: a
   plain assignment or a declaration. It reads a slot operator (bfs's [j =
   seed % n]) or an in-place load (bfs's [int deg = degree[i]] and [int j
   = edges[i*maxdeg + e2]], spmv's [int c = cols[i*k + e2]]) itself, and
   applies an operator over an affine form or code and a slot itself (the
   generators' [seed = (seed * 1103515245 + 12345) % 2147483648], bfs's
   [j = (i + 1 + seed % 2000) % n]). *)
and set_int ctx e dst : Frame.t -> unit =
  match e.edesc with
  | Binop (op, x, y) when op_over_slot ctx e -> (
      int_ops ctx 1;
      let o = iopr e.eloc op y and b = Option.get (int_slot ctx y) in
      match comp_iop ctx x with
      | Iaff _ as x ->
          let a, ab, c, neg = affine_parts ctx x in
          fun fr ->
            let is = fr.Frame.ints in
            Array.unsafe_set is dst (iapply o (affine is a ab c neg) (Array.unsafe_get is b))
      | x ->
          let f = code_of_iop ctx x in
          fun fr ->
            let x = f fr in
            let is = fr.Frame.ints in
            Array.unsafe_set is dst (iapply o x (Array.unsafe_get is b)))
  | _ -> set_iop ctx (comp_iop ctx e) dst

and set_iop ctx op dst : Frame.t -> unit =
  match op with
  | Islot a ->
      fun fr ->
        let is = fr.Frame.ints in
        Array.unsafe_set is dst (Array.unsafe_get is a)
  | Iarith { op; x; y } ->
      fun fr ->
        let is = fr.Frame.ints in
        Array.unsafe_set is dst (iapply op (Array.unsafe_get is x) (Array.unsafe_get is y))
  | Iload l ->
      let la, lb, lc, ln = affine_parts ctx l.sub and lv = l.view in
      fun fr ->
        let is = fr.Frame.ints in
        Array.unsafe_set is dst (load_at fr lv la lb lc ln)
  | op ->
      let f = code_of_iop ctx op in
      fun fr -> Array.unsafe_set fr.Frame.ints dst (f fr)

(* [v op= rhs]: the right-hand side runs before the variable is read. A
   plain double assignment leaves the value straight in the variable. *)
and comp_assign_var ctx s v op rhs =
  match slot_of ctx s.sloc v with
  | Frame.Int_slot i, _ ->
      let loc = s.sloc in
      if op = Set then set_int ctx rhs i
      else (
        int_ops ctx 1;
        let f = code_of_iop ctx (comp_iop ctx rhs) in
        fun fr ->
          let r = f fr in
          let is = fr.Frame.ints in
          Array.unsafe_set is i (iassign loc op (Array.unsafe_get is i) r))
  | Frame.Float_slot i, _ ->
      if op = Set then comp_f_into ctx rhs i
      else (
        flops ctx 1;
        let c, a = parts_of_fop (comp_fop ctx rhs) in
        fun fr ->
          c fr;
          let fl = fr.Frame.floats in
          Array.unsafe_set fl i (fassign op (Array.unsafe_get fl i) (Array.unsafe_get fl a)))
  | Frame.View_slot _, _ -> Loc.error s.sloc "cannot assign whole array %s" v

(* [a[idx] = rhs] evaluates the right-hand side, then the subscript;
   [a[idx] op= rhs] evaluates the subscript, then the right-hand side, then
   reads the element, and charges the read as well as the write. A store
   inside the view's write window sets the element in place. *)
and comp_assign_index ctx s a idx op rhs =
  let vi, elem = view_slot_of ctx s.sloc a in
  let ix = subscript ctx (comp_iop ctx idx) in
  let width = elem_ty_size elem in
  let tw = ctx.classify a idx in
  access ctx tw width;
  if op <> Set then access ctx (ctx.classify a idx) width;
  match elem with
  | Edouble ->
      let c, b = parts_of_fop (comp_fop ctx rhs) in
      let ci = code_of_iop ctx ix in
      if op = Set then fun fr ->
        let v = Array.unsafe_get fr.Frame.views vi in
        c fr;
        store_f v (ci fr) fr.Frame.floats b
      else (
        flops ctx 1;
        let t = fresh_float ctx s.sloc in
        fun fr ->
          let v = Array.unsafe_get fr.Frame.views vi in
          let i = ci fr in
          c fr;
          let fl = fr.Frame.floats in
          let old = load_f v i fl t in
          Array.unsafe_set fl t (fassign op old (Array.unsafe_get fl b));
          store_f v i fl t)
  | Eint -> (
      let r = comp_iop ctx rhs in
      if op = Set then
        match (ix, r) with
        | Islot k, Islot b ->
            fun fr ->
              let is = fr.Frame.ints in
              let v = Array.unsafe_get fr.Frame.views vi in
              store_i v (Array.unsafe_get is k) (Array.unsafe_get is b)
        (* bfs's [levels[j] = level + 1]. *)
        | Islot k, Iarith r ->
            fun fr ->
              let is = fr.Frame.ints in
              let x = arith is r in
              store_i (Array.unsafe_get fr.Frame.views vi) (Array.unsafe_get is k) x
        (* bfs's [edges[i*maxdeg + e] = j]. *)
        | (Iaff _ as ix), Islot b ->
            let a, y, z, neg = affine_parts ctx ix in
            fun fr ->
              let is = fr.Frame.ints in
              let v = Array.unsafe_get fr.Frame.views vi in
              store_i v (affine is a y z neg) (Array.unsafe_get is b)
        | ix, r ->
            let ci = code_of_iop ctx ix and f = code_of_iop ctx r in
            fun fr ->
              let v = Array.unsafe_get fr.Frame.views vi in
              let x = f fr in
              store_i v (ci fr) x
      else (
        int_ops ctx 1;
        let loc = s.sloc and ci = code_of_iop ctx ix and f = code_of_iop ctx r in
        fun fr ->
          let v = Array.unsafe_get fr.Frame.views vi in
          let i = ci fr in
          let x = f fr in
          store_i v i (iassign loc op (load_i v i) x)))

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
  let iv_index = match iv_slot with Frame.Int_slot i -> i | _ -> assert false in
  (* The parallel index and the parameters keep their bound values through
     a launch unless the body writes them. *)
  let written = Mgacc_analysis.Access.written_vars loop.Loop_info.body in
  let unwritten name = not (List.mem name written) in
  ctx.sources <-
    (iv_index, if unwritten loop.Loop_info.loop_var then Some Strip_proof.Par else None)
    :: List.filter_map
         (fun (name, slot, _) ->
           match slot with
           | Frame.Int_slot s when unwritten name -> Some (s, Some (Strip_proof.Fixed s))
           | _ -> None)
         param_slots;
  let body = iteration loop (comp_block ctx loop.Loop_info.body) in
  let provers = Array.of_list ctx.provers in
  {
    run_iter =
      (fun fr i ->
        Array.unsafe_set fr.Frame.ints iv_index i;
        body fr);
    make_frame = (fun () -> Frame.create layout (Cost.zero ()));
    prove =
      (if Array.length provers = 0 then fun _ ~lo:_ ~hi:_ -> ()
       else fun fr ~lo ~hi ->
         for k = 0 to Array.length provers - 1 do
           (Array.unsafe_get provers k) fr lo hi
         done);
    params = param_slots;
    strip_loops = ctx.strip_loops;
  }

let host prog stager = { prog; stager; funcs = Hashtbl.create 8 }

let compile_function h name =
  let fn = function_of ~entry:true h Loc.dummy name in
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
