open Mgacc_minic
open Form
module Cost = Mgacc_gpusim.Cost
module Coalesce = Mgacc_analysis.Coalesce
module Loop_info = Mgacc_analysis.Loop_info

type t = {
  run_iter : Frame.t -> int -> unit;
  make_frame : unit -> Frame.t;
  prove : Frame.t -> lo:int -> hi:int -> unit;
  params : (string * Frame.slot * Ast.typ) list;
}

exception Brk
exception Cnt
exception Returned

type stager = {
  directive : Frame.scope -> Ast.stmt -> (Frame.t -> unit) -> Frame.t -> unit;
  parallel_loop : Frame.scope -> Loop_info.t -> (Frame.t -> int -> int -> unit) -> Frame.t -> unit;
}

(* Host code: the program's functions, each lowered and built once, on
   first reference, into a layout of its own. Host code pays no charges. *)
type host = { prog : Ast.program; stager : stager; funcs : (string, fn) Hashtbl.t }

and fn = { low : func; mutable body : Frame.t -> unit  (** read at call time: recursion sees the final body *) }

type ctx = {
  layout : Frame.Layout.t;
  host : host option;  (** [None] while building a kernel *)
  frame_once : bool;  (** a run builds the frame once, not per call: loops reserve strips *)
  mutable scratch : int;
      (** the float slot a fused operator's loads pass through outside
          their view's read window, [-1] until one needs it *)
  mutable provers : (Frame.t -> int -> int -> unit) list;
      (** what binding a launch proves: one per strip loop with a load
          whose subscript has sources *)
}

let context ?(frame_once = true) layout host = { layout; host; frame_once; scratch = -1; provers = [] }

(* The counter of every host frame. Host code never writes it. *)
let uncharged = Cost.zero ()
let index = function Frame.Int_slot i | Frame.Float_slot i | Frame.View_slot i -> i
let fresh_float ctx = index (Frame.Layout.fresh ctx.layout Loc.dummy Ast.Tdouble)

(* A fused operator reads a load outside its view's window through the
   view's accessor into this slot and takes the value out at once, so one
   slot serves every fused operator of a layout. *)
let scratch ctx =
  if ctx.scratch < 0 then ctx.scratch <- fresh_float ctx;
  ctx.scratch

(* ------------------------------------------------------------------ *)
(* Charges: a fold over each segment's statements.                     *)
(* ------------------------------------------------------------------ *)

(* A segment is straight-line code: a block up to and including its first
   statement that can jump, an [if] or [?:] branch, the right side of
   [&&] or [||], a loop's test, step or body. Every operation in one runs
   exactly once each time it runs to its end, so it pays the sum of their
   charges when it starts. An operator or comparison costs one op of its
   type, a load its access class, a linear subscript its class's int ops
   ({!Form.lin}); a nested segment costs its enclosing one nothing. *)

let flops (c : Cost.t) n = c.Cost.flops <- c.Cost.flops + n
let int_ops (c : Cost.t) n = c.Cost.int_ops <- c.Cost.int_ops + n

(* One array access at a site whose coalescing mode [classify] fixed. *)
let access (c : Cost.t) mode width =
  match mode with
  | Coalesce.Coalesced -> c.Cost.coalesced_bytes <- c.Cost.coalesced_bytes + width
  | Coalesce.Broadcast -> c.Cost.broadcast_bytes <- c.Cost.broadcast_bytes + width
  | Coalesce.Strided _ | Coalesce.Random ->
      c.Cost.random_accesses <- c.Cost.random_accesses + 1;
      c.Cost.random_bytes <- c.Cost.random_bytes + width

(* A reduction update behaves like an atomic scatter: one transaction plus
   the combine op. *)
let scatter c width = access c Coalesce.Random width
let lin_ops = function Lslot _ -> 0 | Laff _ -> 2 | Lsum _ -> 1

let rec cost_i c = function
  | Islot _ | Ilen _ | Icall _ -> ()
  | Ifold _ -> int_ops c 1
  | Ilin l -> int_ops c (lin_ops l)
  | Iload l -> cost_load c l 4
  | Iop { x; y; _ } | Icmp (_, x, y) ->
      int_ops c 1;
      cost_i c x;
      cost_i c y
  | Fcmp (_, x, y) ->
      flops c 1;
      cost_f c x;
      cost_f c y
  | Inot (Ftest _ as x) ->
      flops c 1;
      cost_i c x
  | Iun (_, x) | Inot x | Iand (x, _) | Ior (x, _) | Itern (x, _, _) ->
      int_ops c 1;
      cost_i c x
  | Itrunc x | Ftest x -> cost_f c x

and cost_f c = function
  | Fslot _ | Fcall _ -> ()
  | Fload l -> cost_load c l 8
  | Fun (_, n, x) ->
      flops c n;
      cost_f c x
  | Fbin (_, n, x, y) ->
      flops c n;
      cost_f c x;
      cost_f c y
  | Fint x -> cost_i c x
  | Ftern (x, _, _) ->
      int_ops c 1;
      cost_i c x

and cost_load c { sub; mode; _ } width =
  access c mode width;
  cost_sub c sub

and cost_sub c = function Lin l -> int_ops c (lin_ops l) | Code e -> cost_i c e

let rec cost_s c = function
  | Iset (_, e) | Eval_i e -> cost_i c e
  | Iupd (_, _, e) ->
      int_ops c 1;
      cost_i c e
  | Iincr _ -> int_ops c 1
  | Fset { e; _ } | Eval_f e -> cost_f c e
  | Fupd (_, _, e) ->
      flops c 1;
      cost_f c e
  | Store_i { at; upd; x } ->
      cost_load c at 4;
      if upd <> None then (access c at.mode 4; int_ops c 1);
      cost_i c x
  | Store_f { at; upd; x } ->
      cost_load c at 8;
      if upd <> None then (access c at.mode 8; flops c 1);
      cost_f c x
  | Reduce_i { sub; x; _ } ->
      int_ops c 1;
      scatter c 4;
      cost_sub c sub;
      cost_i c x
  | Reduce_f { sub; x; _ } ->
      flops c 1;
      scatter c 8;
      cost_sub c sub;
      cost_f c x
  | If (e, _, _) ->
      int_ops c 1;
      cost_i c e
  | For { init = Some s; _ } | Counted { init = Some s; _ } -> cost_s c s
  | Call _ | While _ | For _ | Counted _ | Block _ | Array_decl _ | Return _ | Break | Continue | Directive _
  | Par_loop _ ->
      ()

let cost f =
  let c = Cost.zero () in
  f c;
  c

(* Adds [n] times charge [c] to counter [k], inline. *)
let[@inline] pay (k : Cost.t) (c : Cost.t) n =
  k.Cost.flops <- k.Cost.flops + (c.Cost.flops * n);
  k.Cost.int_ops <- k.Cost.int_ops + (c.Cost.int_ops * n);
  k.Cost.coalesced_bytes <- k.Cost.coalesced_bytes + (c.Cost.coalesced_bytes * n);
  k.Cost.broadcast_bytes <- k.Cost.broadcast_bytes + (c.Cost.broadcast_bytes * n);
  k.Cost.random_accesses <- k.Cost.random_accesses + (c.Cost.random_accesses * n);
  k.Cost.random_bytes <- k.Cost.random_bytes + (c.Cost.random_bytes * n)

(* [code] as a segment that pays charge [c] with one add when it starts,
   or with none when the charge is zero or the code is host code. *)
let segment ctx c code =
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

(* [x asr 62] is [-1] for a negative [x] and [0] otherwise. Every result
   is exactly [/]'s or [mod]'s (Granlund and Montgomery, "Division by
   Invariant Integers using Multiplication", PLDI 1994). *)
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
  | Imin -> if x <= y then x else y
  | Imax -> if x >= y then x else y
  | Idiv_shift -> (x + ((x asr 62) land (y - 1))) asr o.k
  | Imod_mask -> x - (((x + ((x asr 62) land (y - 1))) asr o.k) lsl o.k)
  | Idiv_mul -> if x lsr 31 = 0 then (x * o.m) lsr o.k else x / y
  | Imod_mul -> if x lsr 31 = 0 then x - (((x * o.m) lsr o.k) * y) else x mod y

let[@inline] icmp op (a : int) b =
  match op with Ceq -> a = b | Cne -> a <> b | Clt -> a < b | Cle -> a <= b | Cgt -> a > b | Cge -> a >= b

let[@inline] fcmp op (a : float) b =
  match op with Ceq -> a = b | Cne -> a <> b | Clt -> a < b | Cle -> a <= b | Cgt -> a > b | Cge -> a >= b

(* Float.min/max, inlined so the arguments stay unboxed. *)
let[@inline] fmin (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then if Float.is_nan y then y else x
  else if Float.is_nan x then x
  else y

let[@inline] fmax (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then if Float.is_nan x then x else y
  else if Float.is_nan y then y
  else x

let[@inline] sapply k (x : float) y =
  match k with
  | Fadd -> x +. y
  | Fsub -> x -. y
  | Fmul -> x *. y
  | Fdiv -> x /. y
  | Fneg -> -.x
  | Fcopy -> x
  | Fsqrt -> sqrt x
  | Ffabs -> Float.abs x
  | Fexp -> exp x
  | Flog -> log x
  | Fpow -> Float.pow x y
  | Fsin -> sin x
  | Fcos -> cos x
  | Ffloor -> floor x
  | Fceil -> ceil x
  | Ffmin -> fmin x y
  | Ffmax -> fmax x y

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
(* Loads, stores and subscripts.                                       *)
(* ------------------------------------------------------------------ *)

let[@inline] affine (is : int array) a b c neg =
  let p = Array.unsafe_get is a * Array.unsafe_get is b in
  if neg then p - Array.unsafe_get is c else p + Array.unsafe_get is c

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
  if i >= v.View.lo && i < v.View.whi then Array.set v.View.fdata (i - v.View.lo) (Array.unsafe_get bank s)
  else v.View.store_f i bank s

let[@inline] store_i (v : View.t) i x =
  if i >= v.View.lo && i < v.View.whi then Array.set v.View.idata (i - v.View.lo) x else v.View.set_i i x

let[@inline] load_at (fr : Frame.t) v a b c neg =
  load_i (Array.unsafe_get fr.Frame.views v) (affine fr.Frame.ints a b c neg)

let lit ctx v = { slot = Frame.Layout.const_int ctx.layout v; src = Some (Const v) }

(* A linear subscript as [a*b + c] or [a*b - c]: a slot [s] is [s*1 + 0]
   and [j ± c] is [j*1 ± c], with constant slots for 1 and 0 allocated
   only here, once a shape needs them. *)
let lin_vars ctx = function
  | Lslot v -> (v, lit ctx 1, lit ctx 0, false)
  | Laff { a; b; c; neg } -> (a, b, c, neg)
  | Lsum { j; c; neg } -> (j, lit ctx 1, c, neg)

let lin_parts ctx l =
  let a, b, c, neg = lin_vars ctx l in
  (a.slot, b.slot, c.slot, neg)

(* The slot an operand is read from in place, and an operator over two
   slots. *)
let slot_of = function Islot v | Ifold v -> Some v.slot | _ -> None

let arith_of = function
  | Iop { op; x; y } -> (
      match (slot_of x, slot_of y) with Some a, Some b -> Some (op, a, b) | _ -> None)
  | _ -> None

let[@inline] arith is (op, x, y) = iapply op (Array.unsafe_get is x) (Array.unsafe_get is y)

(* ------------------------------------------------------------------ *)
(* Strips: a store-free counted loop, one statement at a time.          *)
(* ------------------------------------------------------------------ *)

(* An eligible loop ({!Lower.strips}) runs one statement at a time over
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

type sopnd =
  | Bank of { slot : int; stride : int }
  | Elem of {
      view : int;
      a : int;
      b : int;
      c : int;
      neg : bool;
      coef : int;
      red : Ast.redop option;
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
  | -1, Fsub, _, _ ->
      fun (fr : Frame.t) t0 len ->
        pass_loop Fcopy false Fsub (-1) keep fr.Frame.floats (sdata fr x) (soffset fr t0 x) (sstride fr x)
          (sdata fr y) (soffset fr t0 y) (sstride fr y) len
  | _, Fmul, false, Fadd when keep < 0 ->
      fun (fr : Frame.t) t0 len ->
        pass_loop Fadd false Fmul acc (-1) fr.Frame.floats (sdata fr x) (soffset fr t0 x) (sstride fr x)
          (sdata fr y) (soffset fr t0 y) (sstride fr y) len
  | _ ->
      fun (fr : Frame.t) t0 len ->
        pass_loop op flip k acc keep fr.Frame.floats (sdata fr x) (soffset fr t0 x) (sstride fr x) (sdata fr y)
          (soffset fr t0 y) (sstride fr y) len

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
  let op = match op with Ast.Rplus -> Fadd | Rmul -> Fmul | Rmax -> Ffmax | Rmin -> Ffmin in
  match (op, k) with
  | Fadd, Fcopy ->
      fun (fr : Frame.t) t0 len ->
        let xd = sdata fr x and xi = soffset fr t0 x and xs = sstride fr x in
        fold_loop Fadd Fcopy xd xi xs xd xi xs (sdata fr d) (soffset fr t0 d) (sstride fr d) len
  | _ ->
      fun (fr : Frame.t) t0 len ->
        fold_loop op k (sdata fr x) (soffset fr t0 x) (sstride fr x) (sdata fr y) (soffset fr t0 y) (sstride fr y)
          (sdata fr d) (soffset fr t0 d) (sstride fr d) len

type strips = {
  passes : (Frame.t -> int -> int -> unit) array;
  loads : sopnd array;  (** every [Elem] a pass reads or folds into *)
  sources : (src * src * src) option array;
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
  | Clt, 1 when v0 < b -> b - v0
  | Cle, 1 when v0 <= b -> b - v0 + 1
  | Cgt, -1 when v0 > b -> v0 - b
  | Cge, -1 when v0 >= b -> v0 - b + 1
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
          (match w.View.rop with None -> true | Some o -> o = op) && first >= 0 && last < Array.length w.View.rdata)

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
        Array.unsafe_set is l.at (affine is l.a l.b l.c l.neg - match l.red with None -> v.View.lo | Some _ -> 0);
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

(* The passes of counted loop [c] as {!Lower.strips} planned them, in slots
   reserved now: a strip of [strip_len] floats per computed operand and
   per scalar a later pass reads, two int slots per load. *)
let build_strips ctx (c : counted) plan =
  let passes = ref [] and loads = ref [] and sources = ref [] and lasts = ref [] and kept = ref [] in
  let dests = ref [] in
  let cint = Frame.Layout.const_int ctx.layout in
  let int () = index (Frame.Layout.fresh ctx.layout Loc.dummy Ast.Tint) in
  let strip () =
    let s = fresh_float ctx in
    for _ = 2 to strip_len do
      ignore (fresh_float ctx : int)
    done;
    s
  in
  let elem view sub red =
    let a, b, cv, neg = lin_vars ctx sub in
    let coef =
      if a.slot = c.ctr then b.slot
      else if b.slot = c.ctr then a.slot
      else cint (if cv.slot = c.ctr then if neg then -1 else 1 else 0)
    in
    let at = int () in
    ignore (int () : int);
    let o = Elem { view; a = a.slot; b = b.slot; c = cv.slot; neg; coef; red; at } in
    loads := o :: !loads;
    sources :=
      (match (a.src, b.src, cv.src) with Some a, Some b, Some c -> Some (a, b, c) | _ -> None) :: !sources;
    if red <> None then dests := view :: !dests;
    o
  in
  let rec term = function
    | Sleaf (Sfloat slot) -> leaf (Bank { slot; stride = 0 })
    | Sleaf (Sstrip s) -> leaf (Bank { slot = List.assoc s !kept; stride = 1 })
    | Sleaf (Selem { view; sub; red }) -> leaf (elem view sub red)
    | Sun (k, x) ->
        let o = value x in
        (k, o, o)
    | Sbin (k, x, y) ->
        let y = value y in
        (k, value x, y)
  and leaf o = (Fcopy, o, o)
  (* [t]'s value as an operand, computed into a strip of its own. *)
  and value t =
    match term t with
    | Fcopy, o, _ -> o
    | k, x, y ->
        let t = strip () in
        passes := pass Fcopy false k x y (-1) t :: !passes;
        Bank { slot = t; stride = 1 }
  in
  List.iter
    (function
      | Splain { dst; live; e } ->
          let k, x, y = term e and t = strip () in
          passes := pass Fcopy false k x y (-1) t :: !passes;
          if live then lasts := (dst, t) :: !lasts;
          kept := (dst, t) :: !kept
      | Sfold { dst; op; flip; e; keep } ->
          let k, x, y = term e and t = if keep then strip () else -1 in
          passes := pass op flip k x y dst t :: !passes;
          if keep then kept := (dst, t) :: !kept
      | Supdate { view; op; sub; e } ->
          let k, x, y = term e in
          passes := fold_pass op k x y (elem view sub (Some op)) :: !passes)
    plan;
  let arr r = Array.of_list !r and n = List.length !loads in
  {
    passes = Array.of_list (List.rev !passes);
    loads = arr loads;
    sources = arr sources;
    proof = (if ctx.host = None then int () else cint 0);
    all = (if n > 62 then -1 else (1 lsl n) - 1);
    lasts = arr lasts;
    dests = arr dests;
  }

(* ------------------------------------------------------------------ *)
(* Closures.                                                           *)
(* ------------------------------------------------------------------ *)

(* Every user of an operand has one generic closure that reads an int
   operand as code returning its value and a double operand as code that
   leaves it in a slot (a slot's code is [nop]); the right operand runs
   first. A user has a closure of its own for a shape only where a
   workload runs it heavily (kernel_compile.mli). *)

(* A loop body's code, ending the iteration on [continue] only if it can. *)
let catch_continue catch cb = if catch then fun fr -> try cb fr with Cnt -> () else cb

(* One iteration of a parallel loop, on every path: a jump out of it is a
   located error. *)
let iteration ~catch loc code =
  if catch then fun fr ->
    try code fr with Brk | Cnt -> Loc.error loc "break/continue escaping a parallel loop iteration"
  else code

let rec icode ctx : iexp -> Frame.t -> int = function
  | Islot { slot = s; _ } | Ifold { slot = s; _ } | Ilin (Lslot { slot = s; _ }) ->
      fun fr -> Array.unsafe_get fr.Frame.ints s
  | Ilin l ->
      let a, b, c, neg = lin_parts ctx l in
      fun fr -> affine fr.Frame.ints a b c neg
  | Iload { view; sub = Lin l; _ } ->
      let a, b, c, neg = lin_parts ctx l in
      fun fr -> load_at fr view a b c neg
  | Iload { view; sub = Code e; _ } ->
      let ci = icode ctx e in
      fun fr ->
        let i = ci fr in
        load_i (Array.unsafe_get fr.Frame.views view) i
  | Iop { op; x; y } as e -> (
      match (arith_of e, arith_of x, arith_of y, slot_of y) with
      | Some o, _, _, _ -> fun fr -> arith fr.Frame.ints o
      (* An operator over two slot operators, bfs's [(i + 1) + seed % 2000]. *)
      | None, Some l, Some r, _ ->
          fun fr ->
            let is = fr.Frame.ints in
            let y = arith is r in
            iapply op (arith is l) y
      (* Code over a slot, bfs's [(i + 1) % n], spmv's [(i + 1 + seed % 500) % n]. *)
      | None, _, _, Some b ->
          let f = icode ctx x in
          fun fr ->
            let x = f fr in
            iapply op x (Array.unsafe_get fr.Frame.ints b)
      | _ ->
          let f = icode ctx x and g = icode ctx y in
          fun fr ->
            let y = g fr in
            let x = f fr in
            iapply op x y)
  | Iun (u, x) -> (
      let f = icode ctx x in
      match u with
      | Uneg -> fun fr -> -f fr
      | Ubnot -> fun fr -> lnot (f fr)
      | Uabs -> fun fr -> abs (f fr)
      | Ucast -> f)
  | Itrunc x ->
      (* C-style truncation. *)
      let c, a = place ctx x in
      fun fr ->
        c fr;
        int_of_float (Array.unsafe_get fr.Frame.floats a)
  | (Icmp _ | Fcmp _ | Iand _ | Ior _ | Inot _ | Ftest _) as e ->
      let c = cond ctx e in
      fun fr -> if c fr then 1 else 0
  | Itern (c, a, b) ->
      let cc = cond ctx c in
      let fa = segment ctx (cost (fun k -> cost_i k a)) (icode ctx a)
      and fb = segment ctx (cost (fun k -> cost_i k b)) (icode ctx b) in
      fun fr -> if cc fr then fa fr else fb fr
  | Ilen v -> fun fr -> (Frame.get_view fr v).View.length
  | Icall c ->
      let call, fn = comp_call ctx c in
      let r = result c fn in
      fun fr -> Array.unsafe_get (call fr).Frame.ints r

(* A subscript's code. *)
and sub_code ctx = function Lin l -> icode ctx (Ilin l) | Code e -> icode ctx e

(* A condition compiled straight to [bool]. *)
and cond ctx : iexp -> Frame.t -> bool = function
  (* kmeans's [dist < best]. *)
  | Fcmp (op, Fslot a, Fslot b) ->
      fun fr ->
        let fl = fr.Frame.floats in
        fcmp op (Array.unsafe_get fl a) (Array.unsafe_get fl b)
  | Fcmp (op, x, y) ->
      let cx, a = place ctx x and cy, b = place ctx y in
      fun fr ->
        cy fr;
        cx fr;
        let fl = fr.Frame.floats in
        fcmp op (Array.unsafe_get fl a) (Array.unsafe_get fl b)
  | Icmp (op, x, y) -> (
      match (slot_of x, slot_of y) with
      | Some a, Some b ->
          fun fr ->
            let is = fr.Frame.ints in
            icmp op (Array.unsafe_get is a) (Array.unsafe_get is b)
      | None, Some b ->
          let f = icode ctx x in
          fun fr -> icmp op (f fr) (Array.unsafe_get fr.Frame.ints b)
      | _ ->
          let f = icode ctx x and g = icode ctx y in
          fun fr ->
            let y = g fr in
            let x = f fr in
            icmp op x y)
  | Iand (x, y) ->
      let fx = cond ctx x and fy = segment ctx (cost (fun k -> cost_i k y)) (cond ctx y) in
      fun fr -> fx fr && fy fr
  | Ior (x, y) ->
      let fx = cond ctx x and fy = segment ctx (cost (fun k -> cost_i k y)) (cond ctx y) in
      fun fr -> fx fr || fy fr
  | Inot x ->
      let c = cond ctx x in
      fun fr -> not (c fr)
  | Ftest x ->
      let c, a = place ctx x in
      fun fr ->
        c fr;
        Array.unsafe_get fr.Frame.floats a <> 0.0
  | e ->
      let f = icode ctx e in
      fun fr -> f fr <> 0

(* A double operand placed: a slot read in place, or code leaving it in a
   temporary. No double ever crosses a closure boundary. *)
and place ctx = function
  | Fslot s -> (nop, s)
  | e ->
      let t = fresh_float ctx in
      (fcode_into ctx e t, t)

(* Code that leaves the value of [e] in float slot [dst]. *)
and fcode_into ctx e dst : Frame.t -> unit =
  match e with
  | Fslot i ->
      fun fr ->
        let fl = fr.Frame.floats in
        Array.unsafe_set fl dst (Array.unsafe_get fl i)
  (* A load at a slot subscript, spmv's [y[i] * inv]. *)
  | Fload { view; sub = Lin (Lslot { slot = s; _ }); _ } ->
      fun fr ->
        let fl = fr.Frame.floats in
        Array.unsafe_set fl dst (load_f (Array.unsafe_get fr.Frame.views view) (Array.unsafe_get fr.Frame.ints s) fl dst)
  | Fload { view; sub; _ } ->
      let ci = sub_code ctx sub in
      fun fr ->
        let i = ci fr in
        let fl = fr.Frame.floats in
        Array.unsafe_set fl dst (load_f (Array.unsafe_get fr.Frame.views view) i fl dst)
  (* A slot with an operator over two loads, in one closure: spmv's [s +
     vals[i*k + e] * x[c]]. The right operand runs first. *)
  | Fbin (k, _, Fslot a, Fbin (k2, _, Fload { view = bv; sub = Lin lb; _ }, Fload { view = cv; sub = Lin lc; _ })) ->
      let ba, bb, bc, bn = lin_parts ctx lb and ca, cb, cc, cn = lin_parts ctx lc and via = scratch ctx in
      fun fr ->
        let fl = fr.Frame.floats and is = fr.Frame.ints and vs = fr.Frame.views in
        let z = load_f (Array.unsafe_get vs cv) (affine is ca cb cc cn) fl via in
        let y = load_f (Array.unsafe_get vs bv) (affine is ba bb bc bn) fl via in
        Array.unsafe_set fl dst (sapply k (Array.unsafe_get fl a) (sapply k2 y z))
  | Fbin (k, _, x, y) ->
      let cx, a = place ctx x and cy, b = place ctx y in
      fun fr ->
        cy fr;
        cx fr;
        let fl = fr.Frame.floats in
        Array.unsafe_set fl dst (sapply k (Array.unsafe_get fl a) (Array.unsafe_get fl b))
  | Fun (k, _, x) ->
      let cx, a = place ctx x in
      fun fr ->
        cx fr;
        let fl = fr.Frame.floats in
        let v = Array.unsafe_get fl a in
        Array.unsafe_set fl dst (sapply k v v)
  | Fint x ->
      let f = icode ctx x in
      fun fr -> Array.unsafe_set fr.Frame.floats dst (float_of_int (f fr))
  | Ftern (c, a, b) ->
      let cc = cond ctx c in
      let ca = segment ctx (cost (fun k -> cost_f k a)) (fcode_into ctx a dst)
      and cb = segment ctx (cost (fun k -> cost_f k b)) (fcode_into ctx b dst) in
      fun fr -> if cc fr then ca fr else cb fr
  | Fcall c ->
      let call, fn = comp_call ctx c in
      let r = result c fn in
      fun fr ->
        let callee = call fr in
        Array.unsafe_set fr.Frame.floats dst (Array.unsafe_get callee.Frame.floats r)

(* A call to a user function runs its body in a fresh frame and returns
   that frame. Scalar arguments are passed by value; array arguments pass
   the view by reference, C pointer style. Functions see only their own
   frame: no lexical capture. *)
and comp_call ctx { name; cloc; args } =
  match ctx.host with
  | None -> Loc.error cloc "user function calls are not allowed in kernels: %s" name
  | Some h ->
      let fn = function_of h cloc name in
      let bind slot arg =
        let dst = index slot in
        match arg with
        | Aview src -> fun (caller : Frame.t) (callee : Frame.t) -> callee.Frame.views.(dst) <- caller.Frame.views.(src)
        | Aint e ->
            let f = icode ctx e in
            fun caller callee -> callee.Frame.ints.(dst) <- f caller
        | Afloat e ->
            let c, s = place ctx e in
            fun caller callee ->
              c caller;
              callee.Frame.floats.(dst) <- caller.Frame.floats.(s)
      in
      let binds = Array.of_list (List.map2 bind fn.low.pslots args) in
      ( (fun fr ->
          let callee = Frame.create fn.low.lay uncharged in
          Array.iter (fun b -> b fr callee) binds;
          (try fn.body callee with Returned -> ());
          callee),
        fn )

(* Where a call to a value-returning function leaves its result. *)
and result { name; cloc; _ } fn =
  match fn.low.rslot with Some s -> index s | None -> Loc.error cloc "function %s returns no value" name

and function_of ?(entry = false) h loc name =
  match Hashtbl.find_opt h.funcs name with
  | Some fn -> fn
  | None ->
      let low = Lower.func h.prog loc name in
      let fn = { low; body = nop } in
      Hashtbl.replace h.funcs name fn;
      fn.body <- block (context ~frame_once:entry low.lay (Some h)) low.code;
      fn

(* Code that leaves the value of int operand [e] in slot [dst]: a plain
   assignment or a declaration. It reads a slot, a slot operator (bfs's
   [j = seed % n]) or an in-place load (bfs's [int deg = degree[i]], spmv's
   [int c = cols[i*k + e2]]) itself, and applies an operator over an
   affine form or code and a slot itself (the generators' [seed = (seed *
   1103515245 + 12345) % 2147483648], bfs's [j = (i + 1 + seed % 2000) %
   n]). *)
and set_int ctx e dst : Frame.t -> unit =
  let generic () =
    let f = icode ctx e in
    fun fr -> Array.unsafe_set fr.Frame.ints dst (f fr)
  in
  match (e, slot_of e, arith_of e) with
  | _, Some a, _ ->
      fun fr ->
        let is = fr.Frame.ints in
        Array.unsafe_set is dst (Array.unsafe_get is a)
  | _, _, Some o ->
      fun fr ->
        let is = fr.Frame.ints in
        Array.unsafe_set is dst (arith is o)
  | Iload { view; sub = Lin l; _ }, _, _ ->
      let a, b, c, neg = lin_parts ctx l in
      fun fr -> Array.unsafe_set fr.Frame.ints dst (load_at fr view a b c neg)
  | Iop { op; x; y }, _, _ -> (
      match (x, slot_of y) with
      | Ilin l, Some b ->
          let a, ab, c, neg = lin_parts ctx l in
          fun fr ->
            let is = fr.Frame.ints in
            Array.unsafe_set is dst (iapply op (affine is a ab c neg) (Array.unsafe_get is b))
      | x, Some b ->
          let f = icode ctx x in
          fun fr ->
            let x = f fr in
            let is = fr.Frame.ints in
            Array.unsafe_set is dst (iapply op x (Array.unsafe_get is b))
      | _ -> generic ())
  | _ -> generic ()

and stmt ctx : stmt -> Frame.t -> unit = function
  | Iset (dst, e) -> set_int ctx e dst
  | Iupd (i, op, e) ->
      let f = icode ctx e in
      fun fr ->
        let r = f fr in
        let is = fr.Frame.ints in
        Array.unsafe_set is i (iapply op (Array.unsafe_get is i) r)
  | Iincr (i, d) ->
      fun fr ->
        let is = fr.Frame.ints in
        Array.unsafe_set is i (Array.unsafe_get is i + d)
  | Fset { dst; e; _ } -> fcode_into ctx e dst
  | Fupd (i, op, e) ->
      let c, a = place ctx e in
      fun fr ->
        c fr;
        let fl = fr.Frame.floats in
        Array.unsafe_set fl i (sapply op (Array.unsafe_get fl i) (Array.unsafe_get fl a))
  (* A plain element assignment runs its value, then its subscript; a
     compound one its subscript, then its value, then reads the element. *)
  | Store_i { at = { view; sub; _ }; upd = None; x } -> (
      match (sub, slot_of x, arith_of x) with
      | Lin (Lslot { slot = k; _ }), Some b, _ ->
          fun fr ->
            let is = fr.Frame.ints in
            store_i (Array.unsafe_get fr.Frame.views view) (Array.unsafe_get is k) (Array.unsafe_get is b)
      (* bfs's [levels[j] = level + 1]. *)
      | Lin (Lslot { slot = k; _ }), None, Some o ->
          fun fr ->
            let is = fr.Frame.ints in
            let x = arith is o in
            store_i (Array.unsafe_get fr.Frame.views view) (Array.unsafe_get is k) x
      (* bfs's [edges[i*maxdeg + e] = j]. *)
      | Lin l, Some b, _ ->
          let a, y, z, neg = lin_parts ctx l in
          fun fr ->
            let is = fr.Frame.ints in
            store_i (Array.unsafe_get fr.Frame.views view) (affine is a y z neg) (Array.unsafe_get is b)
      | _ ->
          let ci = sub_code ctx sub and f = icode ctx x in
          fun fr ->
            let v = Array.unsafe_get fr.Frame.views view in
            let x = f fr in
            store_i v (ci fr) x)
  | Store_i { at = { view; sub; _ }; upd = Some op; x } ->
      let ci = sub_code ctx sub and f = icode ctx x in
      fun fr ->
        let v = Array.unsafe_get fr.Frame.views view in
        let i = ci fr in
        let x = f fr in
        store_i v i (iapply op (load_i v i) x)
  | Store_f { at = { view; sub; _ }; upd; x } -> (
      let c, b = place ctx x and ci = sub_code ctx sub in
      match upd with
      | None ->
          fun fr ->
            let v = Array.unsafe_get fr.Frame.views view in
            c fr;
            store_f v (ci fr) fr.Frame.floats b
      | Some op ->
          let t = fresh_float ctx in
          fun fr ->
            let v = Array.unsafe_get fr.Frame.views view in
            let i = ci fr in
            c fr;
            let fl = fr.Frame.floats in
            let old = load_f v i fl t in
            Array.unsafe_set fl t (sapply op old (Array.unsafe_get fl b));
            store_f v i fl t)
  (* The contribution runs before the subscript. *)
  | Reduce_f { view; op; sub; x } ->
      let cc, c = place ctx x and ci = sub_code ctx sub in
      fun fr ->
        let v = Array.unsafe_get fr.Frame.views view in
        cc fr;
        v.View.reduce_f op (ci fr) fr.Frame.floats c
  | Reduce_i { view; op; sub; x } ->
      let ci = sub_code ctx sub and cf = icode ctx x in
      fun fr ->
        let v = Array.unsafe_get fr.Frame.views view in
        let x = cf fr in
        v.View.reduce_i op (ci fr) x
  | Eval_i e ->
      let f = icode ctx e in
      fun fr -> ignore (f fr : int)
  | Eval_f e -> fcode_into ctx e (fresh_float ctx)
  | Call c ->
      let call, _ = comp_call ctx c in
      fun fr -> ignore (call fr : Frame.t)
  | If (c, t, e) -> (
      let ct = block ctx t and ce = block ctx e in
      (* Tested in the [if]'s own closure: a slot with a slot (spmv's [c
         >= 0]; bfs's [e == 0] and spmv's [pad == 0], with an [else]), a
         slot operator with a slot and an [else] (bfs's [seed % 10 < 8]),
         and a load with a slot and no [else] (bfs's [levels[i] == level],
         kmeans's [bc != membership[i]]). *)
      match (c, e) with
      | Icmp (op, x, y), _ -> (
          match (slot_of x, arith_of x, x, slot_of y, e) with
          | Some a, _, _, Some b, [] ->
              fun fr ->
                let is = fr.Frame.ints in
                if icmp op (Array.unsafe_get is a) (Array.unsafe_get is b) then ct fr
          | Some a, _, _, Some b, _ ->
              fun fr ->
                let is = fr.Frame.ints in
                if icmp op (Array.unsafe_get is a) (Array.unsafe_get is b) then ct fr else ce fr
          | _, Some o, _, Some b, _ :: _ ->
              fun fr ->
                let is = fr.Frame.ints in
                if icmp op (arith is o) (Array.unsafe_get is b) then ct fr else ce fr
          | _, _, Iload { view; sub = Lin l; _ }, Some b, [] ->
              let la, lb, lc, ln = lin_parts ctx l in
              fun fr -> if icmp op (load_at fr view la lb lc ln) (Array.unsafe_get fr.Frame.ints b) then ct fr
          | _ -> branch (cond ctx c) ct ce e)
      | _ -> branch (cond ctx c) ct ce e)
  | While { cond = c; body; catch } ->
      let cc = segment ctx (cost (fun k -> int_ops k 1; cost_i k c)) (cond ctx c) in
      let cb = catch_continue catch (block ctx body) in
      fun fr -> (
        try
          while cc fr do
            cb fr
          done
        with Brk -> ())
  | For { init; cond = c; update; body; catch } ->
      let init = opt ctx init in
      let cc =
        segment ctx
          (cost (fun k -> int_ops k 1; Option.iter (cost_i k) c))
          (match c with Some e -> cond ctx e | None -> fun _ -> true)
      in
      let update = match update with Some s -> segment ctx (cost (fun k -> cost_s k s)) (stmt ctx s) | None -> nop in
      let cb = catch_continue catch (block ctx body) in
      fun fr ->
        init fr;
        (try
           while cc fr do
             cb fr;
             update fr
           done
         with Brk -> ())
  | Counted c -> counted ctx c
  | Block b -> block ctx b
  | Array_decl { view; elem; name; len; aloc } ->
      let cl = icode ctx len in
      let make =
        match elem with
        | Ast.Eint -> fun n -> View.of_int_array ~name (Array.make n 0)
        | Ast.Edouble -> fun n -> View.of_float_array ~name (Array.make n 0.0)
      in
      let too_large n = Loc.error aloc "array %s: length %d is too large to allocate" name n in
      fun fr ->
        let n = cl fr in
        if n < 0 then Loc.error aloc "negative array length for %s" name;
        if n > Sys.max_array_length then too_large n;
        fr.Frame.views.(view) <- (try make n with Out_of_memory -> too_large n)
  | Return Rnone -> fun _ -> raise Returned
  | Return (Rint (r, e)) ->
      let f = icode ctx e in
      fun fr ->
        Array.unsafe_set fr.Frame.ints r (f fr);
        raise Returned
  | Return (Rfloat (r, e)) ->
      let f = fcode_into ctx e r in
      fun fr ->
        f fr;
        raise Returned
  | Break -> fun _ -> raise Brk
  | Continue -> fun _ -> raise Cnt
  | Directive { scope; pragma; inner } -> (
      let code = stmt ctx inner in
      match ctx.host with Some h -> h.stager.directive scope pragma code | None -> code)
  | Par_loop { scope; loop; iv; body; catch } -> (
      (* Iterations [lo, hi), run in order in the host frame. *)
      let body = iteration ~catch loop.Loop_info.loop_loc (block ctx body) in
      let sequential fr lo hi =
        for i = lo to hi - 1 do
          Array.unsafe_set fr.Frame.ints iv i;
          body fr
        done
      in
      match ctx.host with
      | Some h -> h.stager.parallel_loop (scope : Frame.scope) loop sequential
      | None -> Loc.error loop.Loop_info.loop_loc "parallel loop outside host code")

and branch cc ct ce = function [] -> fun fr -> if cc fr then ct fr | _ -> fun fr -> if cc fr then ct fr else ce fr
and opt ctx = function Some s -> stmt ctx s | None -> nop

(* One OCaml loop over the counter's and the bound's slots, or strips
   (kernel_compile.mli). The body cannot jump, so it is one segment, paid
   for every trip at once when the loop ends: its charge plus 3 int ops per
   trip (the loop's and the comparison's tests, the step), and 2 for the
   test that ends it; a negated bound adds its negation to each test. *)
and counted ctx (c : counted) =
  let init = opt ctx c.init in
  let cb = seq (List.map (stmt ctx) c.body) in
  let per_trip = cost (fun k -> List.iter (cost_s k) c.body) in
  per_trip.Cost.int_ops <- per_trip.Cost.int_ops + 3 + c.neg;
  let strips = if ctx.frame_once then Option.map (build_strips ctx c) (Lower.strips c) else None in
  Option.iter
    (fun s ->
      if ctx.host = None && Array.exists Option.is_some s.sources then ctx.provers <- prove_strips s :: ctx.provers)
    strips;
  let charged = ctx.host = None and op = c.cmp and v = c.ctr and b = c.bound and d = c.step and neg = c.neg in
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
        else one_at_a_time fr

(* A block runs as its segments, each paying its charge when it starts. *)
and block ctx (b : block) =
  seq (List.map (fun seg -> segment ctx (cost (fun k -> List.iter (cost_s k) seg)) (seq (List.map (stmt ctx) seg))) b)

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)
(* ------------------------------------------------------------------ *)

let compile ~loop ~params ~classify =
  let k = Lower.kernel ~loop ~params ~classify in
  let ctx = context k.klayout None in
  let iv = k.kiv in
  let body = iteration ~catch:k.kcatch loop.Loop_info.loop_loc (block ctx k.kbody) in
  let provers = Array.of_list ctx.provers in
  {
    run_iter =
      (fun fr i ->
        Array.unsafe_set fr.Frame.ints iv i;
        body fr);
    make_frame = (fun () -> Frame.create k.klayout (Cost.zero ()));
    prove =
      (if Array.length provers = 0 then fun _ ~lo:_ ~hi:_ -> ()
       else fun fr ~lo ~hi ->
         for k = 0 to Array.length provers - 1 do
           (Array.unsafe_get provers k) fr lo hi
         done);
    params = k.kparams;
  }

let host prog stager = { prog; stager; funcs = Hashtbl.create 8 }

let compile_function h name =
  let fn = function_of ~entry:true h Loc.dummy name in
  ( fn.low.names,
    fun () ->
      let fr = Frame.create fn.low.lay uncharged in
      (try fn.body fr with Returned -> ());
      fr )

(* An expression evaluated against a live frame is lowered into a layout
   above the frame's own slots and runs on a copy with room for them. *)
let eval h scope fr lower build =
  let layout = Frame.layout_above scope fr in
  let code = build (context layout (Some h)) (lower h.prog layout) in
  code (Frame.extend fr layout)

let eval_int h scope e fr = eval h scope fr (fun p l -> Lower.int_expr p l e) icode

let eval_float h scope e fr =
  eval h scope fr
    (fun p l -> Lower.float_expr p l e)
    (fun ctx e ->
      let c, s = place ctx e in
      fun fr ->
        c fr;
        fr.Frame.floats.(s))
