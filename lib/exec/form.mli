(** The first-order form of mini-C that {!Kernel_compile} builds from.

    {!Lower} turns a typed kernel body or host function into this form
    once: every name is resolved to a frame slot, every literal to a
    constant slot, every operator to what it runs, and every subscript is
    classified. The closures that run trip at a time, the strips, the
    launch-time proofs and the segment charges are then all read from it;
    none of them walks the AST again.

    An int operand and a double operand are separate types, so an int
    operator never meets a double and a double builtin is never an int
    one. A conversion between them is a node of its own. *)

open Mgacc_minic

(** A comparison. *)
type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

(** Where an int slot's values over a whole launch come from, when that is
    known ({!Strip_proof.extent}). *)
type src =
  | Const of int  (** a literal *)
  | Fixed of int  (** a kernel parameter no statement writes: its slot's bound value *)
  | Par  (** the parallel index: the GPU's iteration range *)
  | Ctr of { init : src; bound : src; op : cmp; step : int }
      (** the counter of an enclosing counted loop [for (v = init; v op
          bound; v += step)] that no statement of its body writes, with
          [op] [<] or [<=] for [step = 1] and [>] or [>=] for [step = -1] *)

(** An int slot read in place: a variable, a literal's constant, or the
    constant an operator over two literals folds to. *)
type ivar = { slot : int; src : src option }

(** A subscript linear in int slots, computed inside the closure that
    reads it and charged by its class: one slot (nothing), [a*b + c] or
    [a*b - c] (2 int ops), [j + c] or [j - c] (1 int op). *)
type lin =
  | Lslot of ivar
  | Laff of { a : ivar; b : ivar; c : ivar; neg : bool }
  | Lsum of { j : ivar; c : ivar; neg : bool }

(** An int operator as it runs. [/] and [%] by a positive literal [d]
    need no hardware divide: [d = 2^k] divides by a shift and takes the
    remainder by a mask ([Idiv_shift], [Imod_mask], [k] in {!iop.k}); any
    other [d <= 2^30] divides a dividend in [\[0, 2^31)] by a reciprocal
    multiply ([Idiv_mul], [Imod_mul], {!iop.m} and {!iop.k}). *)
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
  | Imin
  | Imax
  | Idiv_shift
  | Imod_mask
  | Idiv_mul
  | Imod_mul

type iop = { op : iarith; k : int; m : int; loc : Loc.t  (** where a division by zero is raised *) }

(** A double operation: an operator, a negation, a copy of the left
    operand (strips only) or a builtin. A unary one reads its operand
    twice. *)
type fop =
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fneg
  | Fcopy
  | Fsqrt
  | Ffabs
  | Fexp
  | Flog
  | Fpow
  | Fsin
  | Fcos
  | Ffloor
  | Fceil
  | Ffmin
  | Ffmax

(** Unary int operations; each charges an int op. [Ucast] is [(int)] of a
    double, whose operand is an {!Itrunc}. *)
type iun = Uneg | Ubnot | Uabs | Ucast

(** An element of the array in view slot [view], at a site [classify]
    gave [mode]. *)
type load = { view : int; sub : sub; mode : Mgacc_analysis.Coalesce.mode }

and sub = Lin of lin | Code of iexp

(** An int operand. The right operand of a binary node runs first. *)
and iexp =
  | Islot of ivar
  | Ifold of ivar  (** [+ - *] over two literals: a constant charged its int op *)
  | Ilin of lin  (** [a*b ± c] over three slots *)
  | Iload of load
  | Iop of { op : iop; x : iexp; y : iexp }
      (** an arithmetic operator or [min]/[max]; a commutative one has
          its slot operand, if it has one, on the right *)
  | Iun of iun * iexp
  | Itrunc of fexp  (** a double truncated toward zero, uncharged *)
  | Icmp of cmp * iexp * iexp  (** a slot operand, if there is one, on the right *)
  | Fcmp of cmp * fexp * fexp  (** charges a flop *)
  | Iand of iexp * iexp  (** the right side is a segment of its own *)
  | Ior of iexp * iexp
  | Inot of iexp  (** charges a flop when its operand is an {!Ftest} *)
  | Ftest of fexp  (** a double as a condition: true when non-zero *)
  | Itern of iexp * iexp * iexp  (** each branch a segment of its own *)
  | Ilen of int  (** the length of the array in a view slot *)
  | Icall of call

(** A double operand; the int in {!Fun} and {!Fbin} is its flops. *)
and fexp =
  | Fslot of int  (** a double variable or a literal's constant *)
  | Fload of load
  | Fun of fop * int * fexp
  | Fbin of fop * int * fexp * fexp
  | Fint of iexp  (** an int as a double, uncharged *)
  | Ftern of iexp * fexp * fexp
  | Fcall of call

(** A call to a user function (host code only): each argument by its
    parameter's type, an array by its view slot. *)
and call = { name : string; cloc : Loc.t; args : arg list }

and arg = Aview of int | Aint of iexp | Afloat of fexp

(** A statement. Plain assignments, declarations included, set a slot;
    compound ones carry their operator. *)
type stmt =
  | Iset of int * iexp
  | Iupd of int * iop * iexp
  | Iincr of int * int
  | Fset of { dst : int; e : fexp; decl : bool  (** declared here: dead after its block *) }
  | Fupd of int * fop * fexp
  | Store_i of { at : load; upd : iop option; x : iexp }
      (** [upd] for a compound store, which reads the element too *)
  | Store_f of { at : load; upd : fop option; x : fexp }
  | Reduce_i of { view : int; op : Ast.redop; sub : sub; x : iexp }  (** a kernel's [reductiontoarray] *)
  | Reduce_f of { view : int; op : Ast.redop; sub : sub; x : fexp }
  | Eval_i of iexp
  | Eval_f of fexp
  | Call of call
  | If of iexp * block * block
  | While of { cond : iexp; body : block; catch : bool  (** a [continue] can leave the body *) }
  | For of { init : stmt option; cond : iexp option; update : stmt option; body : block; catch : bool }
  | Counted of counted
  | Block of block
  | Array_decl of { view : int; elem : Ast.elem_ty; name : string; len : iexp; aloc : Loc.t }
  | Return of ret
  | Break
  | Continue
  | Directive of { scope : Frame.scope; pragma : Ast.stmt; inner : stmt }
  | Par_loop of { scope : Frame.scope; loop : Mgacc_analysis.Loop_info.t; iv : int; body : block; catch : bool }

(** A block as its segments: each runs to its end once started, up to and
    including a statement that can jump. Host code has one, and an empty
    block none. *)
and block = stmt list list

and ret = Rnone | Rint of int * iexp | Rfloat of int * fexp

(** [for (init; ctr cmp bound; ctr += step)], [step] 1 or -1, over two int
    slots, with no jump leaving [body]; [neg] is 1 when the bound is a
    negated literal, whose negation each test still pays. [csrc] is the
    counter's source while the body runs, in a kernel. *)
and counted = {
  cmp : cmp;
  ctr : int;
  bound : int;
  step : int;
  neg : int;
  csrc : src option;
  init : stmt option;
  body : stmt list;  (** one segment *)
}

(** A kernel: its layout, the parallel index's slot, its parameters' slots
    in the order given, and its body. *)
type kernel = {
  klayout : Frame.Layout.t;
  kiv : int;
  kparams : (string * Frame.slot * Ast.typ) list;
  kbody : block;
  kcatch : bool;  (** a [break] or [continue] can leave an iteration *)
}

(** A host function: its layout, parameter and result slots, body, and the
    names in force at the end of the body. *)
type func = {
  lay : Frame.Layout.t;
  pslots : Frame.slot list;
  rslot : Frame.slot option;
  code : block;
  names : Frame.scope;
}

(** {1 Strips}

    What a counted loop runs one statement at a time over strips of trips
    ({!Lower.strips}), before any slot is reserved for it. *)

type sleaf =
  | Sfloat of int  (** a float slot every trip reads: a constant or a scalar the loop does not write *)
  | Sstrip of int  (** the strip of the scalar in this float slot, written by an earlier pass *)
  | Selem of { view : int; sub : lin; red : Ast.redop option  (** a reduction destination *) }

type sterm = Sleaf of sleaf | Sun of fop * sterm | Sbin of fop * sterm * sterm

type spass =
  | Splain of { dst : int; live : bool; e : sterm }  (** [live]: declared outside the body *)
  | Sfold of { dst : int; op : fop; flip : bool; e : sterm; keep : bool }
      (** [dst = dst op e] ([e op dst] when [flip]); [keep]: a later pass reads [dst] *)
  | Supdate of { view : int; op : Ast.redop; sub : lin; e : sterm }
