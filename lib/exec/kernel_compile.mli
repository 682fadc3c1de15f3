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

    While executing, the closures bump a {!Mgacc_gpusim.Cost.t}: arithmetic
    by operator type, and array traffic by the coalescing mode assigned to
    each syntactic access site by the [classify] callback (this is where
    the data-layout transformation changes the accounting).

    Kernel restrictions enforced here (with located errors): no user
    function calls, no array declarations, no [return], and no data or
    update directives inside a kernel body. Conditions test non-zero in
    their own type; integer division and modulo by zero raise a located
    {!Loc.Error}. *)

open Mgacc_minic

type t = {
  run_iter : Frame.t -> int -> unit;  (** execute one iteration at index i *)
  make_frame : unit -> Frame.t;
  params : (string * Frame.slot * Ast.typ) list;
      (** parameter binding sites, in the order given to {!compile} *)
  cost : Mgacc_gpusim.Cost.t;  (** the live counter the closures bump *)
}

val compile :
  loop:Mgacc_analysis.Loop_info.t ->
  params:(string * Ast.typ) list ->
  classify:(string -> Ast.expr -> Mgacc_analysis.Coalesce.mode) ->
  t
(** [params] lists the kernel's free variables (loop-uniform scalars and
    arrays) with their host types; [classify array subscript] chooses the
    coalescing mode charged for that access site. *)

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

val compile_int : host -> Frame.scope -> Ast.expr -> Frame.t -> int
val compile_float : host -> Frame.scope -> Ast.expr -> Frame.t -> float
(** Compile an expression against the names of [scope]; run the result on
    a frame of the function that scope belongs to. *)
