(** Closure compilation of mini-C: the one evaluator of the language.

    Code is compiled once into OCaml closures over a slotted {!Frame.t};
    running it is then just closure application with no name resolution.
    A parallel-loop body compiles to a kernel ({!compile}), which serves
    every execution target — host OpenMP simulation, single-GPU CUDA
    baseline, and each GPU partition of the multi-GPU runtime — differing
    only in the views bound into the frame. Host code compiles through the
    same expression and statement compiler ({!host}), with four more forms
    allowed: user function calls, array declarations, [return], and
    directives, which a {!stager} turns into runtime actions.

    Doubles never cross a closure boundary boxed. A double expression
    compiles to code that leaves its value in a float slot of the frame
    (the destination variable's own slot for a declaration or plain
    assignment, else a temporary from {!Frame.Layout.fresh}), and moves
    through views with the slot-passing accessors of {!View.t}. Operands
    are specialized by shape at compile time: a variable or literal operand
    is read from its slot inside the operator's closure rather than called,
    an int comparison used as a condition yields a [bool] directly, a
    subscript [a*b + c], [c + a*b] or [a*b - c] over int variables and
    literals is computed inside the access's closure, [a + b], [a - b] or
    [a * b] over two int literals is a constant, and a builtin call
    resolves its operation once. A counted loop, [for (init; v op b; v++)]
    or [v--] with [v] an int variable, [b] an int variable or literal and
    no [break] or [continue] leaving its body, runs as one OCaml loop over
    the two slots; other loops install a [continue] handler only when their
    body can jump. Shape never changes a charge. Evaluation order is fixed:
    the right operand of a binary operator runs before the left, a plain
    element assignment runs its value before its subscript, and a compound
    one its subscript first; so a statement with two faults raises the
    same located error however its operands are shaped.

    A double operand of a float operator ([+ - * /]) has two more shapes
    than a slot or code: an {e in-place load}, [a\[i\]] of a double array
    whose subscript is a slot or an affine form, and an {e operator} over
    two slots or two in-place loads. Both are charged when they compile
    and run inside the closure of the operator that uses them when one of
    three fused shapes matches: two in-place loads under one operator
    (kmeans's [x\[i*f + j\] - centers\[c*f + j\]]), and a slot with an
    operator over two slots or two loads (kmeans's [dist + d*d], spmv's
    [s + vals\[i*k + e\] * x\[c\]]). Otherwise they are compiled into a
    temporary like any code operand. A reduction update with an affine
    subscript reads an in-place load contribution itself (kmeans's
    [newcenters\[c*f + j\] = newcenters\[c*f + j\] + x\[i*f + j\]]). Fusing
    changes neither order nor charges: the right operand still runs first,
    a fused load raises what an unfused one raises, and the segment's
    static charge is the same sum (a flop per operator; per load its
    access class, and 2 int ops for an affine subscript, a slot subscript
    being run as [s*1 + 0] but charged as a slot).

    A kernel charges the {!Frame.t.cost} of the frame it runs in:
    arithmetic by operator type, and array traffic by the coalescing mode
    the [classify] callback assigns to each syntactic access site when it
    compiles (this is where the data-layout transformation changes the
    accounting). The charges are static. Compilation adds each operation's
    charge to the {e segment} being compiled, a piece of straight-line
    code that, once started, runs every operation in it exactly once
    unless it faults: a block up to and including its first statement
    that can jump ([break] or [continue] leaving it), each [if] and [?:]
    branch, the right side of [&&] and [||], a loop's test, step and body,
    and a parallel iteration. A segment pays its whole charge with one add
    when it starts, and nothing when the charge is zero. A counted loop
    cannot jump, so it counts its trips and pays once when it ends: (body
    + 3 int ops) per trip, plus 2 for the test that ends it. The totals
    equal those of charging each operation as it runs, except after a
    fault: an operation that raises ([Bounds], a window violation, a
    division by zero) leaves the rest of its segment paid for and any
    enclosing counted loop unpaid. No caller reads a counter after a
    fault; the launch that raised is abandoned. Charges the runtime's
    views make themselves (dirty bits, miss checks) are dynamic and stay
    in the views. A kernel frame gets a counter of its own, so a compiled
    kernel is re-entrant. Host code pays nothing.

    Loads read in place: a subscript inside the view's read window
    ({!View.t.lo}) is one checked read of the view's backing array, and
    only one outside it calls the view's accessor ([load_f], [get_i]), so
    a bad read raises what the accessor raises; every load, fused or not,
    goes through one read helper. Stores, reduction updates and the read
    of a compound assignment go through the accessors.

    Kernel restrictions enforced here (with located errors): no user
    function calls, no array declarations, no [return], and no data or
    update directives inside a kernel body. Conditions test non-zero in
    their own type; integer division and modulo by zero raise a located
    {!Loc.Error}. *)

open Mgacc_minic

type t = {
  run_iter : Frame.t -> int -> unit;  (** execute one iteration at index i *)
  make_frame : unit -> Frame.t;
      (** a fresh frame with a zeroed cost counter, which the iterations
          run in it charge *)
  params : (string * Frame.slot * Ast.typ) list;
      (** parameter binding sites, in the order given to {!compile} *)
}

val compile :
  loop:Mgacc_analysis.Loop_info.t ->
  params:(string * Ast.typ) list ->
  classify:(string -> Ast.expr -> Mgacc_analysis.Coalesce.mode) ->
  t
(** [params] lists the kernel's free variables (loop-uniform scalars and
    arrays) with their host types; [classify array subscript] chooses the
    coalescing mode charged for that access site. A [break] or [continue]
    escaping an iteration raises a located {!Loc.Error} when it runs. *)

val extract_reduction :
  Ast.redop -> Ast.stmt -> Ast.expr * Ast.expr
(** [extract_reduction op stmt] decomposes a [reductiontoarray]-annotated
    assignment into (destination subscript, contribution expression),
    checking the statement really is an [op]-reduction (e.g.
    [a\[k\] += v], [a\[k\] = a\[k\] + v], [a\[k\] = fmax(a\[k\], v)]).
    Raises {!Loc.Error} otherwise. *)

(** {1 Host code} *)

type stager = {
  directive : Frame.scope -> Ast.stmt -> (Frame.t -> unit) -> Frame.t -> unit;
      (** [directive scope pragma inner] is called once per data or update
          directive site, with the names in force at the pragma and the
          compiled annotated statement; it returns what the site does. *)
  parallel_loop :
    Frame.scope ->
    Mgacc_analysis.Loop_info.t ->
    (Frame.t -> int -> int -> unit) ->
    Frame.t ->
    unit;
      (** [parallel_loop scope loop sequential] is called once per
          parallel-loop site, with [loop] normalized ([loop_id] 0) and
          [sequential fr lo hi], which runs iterations [lo, hi) in order in
          the frame (a [break]/[continue] escaping an iteration raises a
          located error); it returns what the site does. *)
}

type host
(** A program's host code, compiled function by function on first use. *)

val host : Ast.program -> stager -> host
(** The program must already typecheck. *)

val compile_function : host -> string -> Frame.scope * (unit -> Frame.t)
(** Compile the named function and its callees. Returns the names in force
    at the end of its body and a runner that executes the body in a fresh
    frame and returns that frame. *)

val eval_int : host -> Frame.scope -> Ast.expr -> Frame.t -> int
val eval_float : host -> Frame.scope -> Ast.expr -> Frame.t -> float
(** Compile an expression against the names of [scope] and run it on a
    frame of the function that scope belongs to. [eval_float] is where a
    double leaves the executor boxed. *)
