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
    literals is computed inside the access's closure, and a builtin call
    resolves its operation once. A counted loop, [for (init; v op b; v++)]
    or [v--] with [v] an int variable, [b] an int variable or literal and
    no [break] or [continue] leaving its body, runs as one OCaml loop over
    the two slots; other loops install a [continue] handler only when their
    body can jump. Shape never changes a charge. Evaluation order is fixed:
    the right operand of a binary operator runs before the left, a plain
    element assignment runs its value before its subscript, and a compound
    one its subscript first; so a statement with two faults raises the
    same located error however its operands are shaped.

    While executing, the closures charge the {!Frame.t.cost} of the frame
    they run in: arithmetic by operator type, and array traffic by the
    coalescing mode the [classify] callback assigns to each syntactic
    access site when it compiles (this is where the data-layout
    transformation changes the accounting). Each charge is written inside
    the closure that executes the operation. A kernel frame gets a counter
    of its own, so a compiled kernel is re-entrant; host frames share one.

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
