(** Extraction and normalization of directive-annotated parallel loops.

    A parallel loop is a [for] statement annotated (possibly through a stack
    of pragmas) with [#pragma acc parallel loop]; a [#pragma acc
    localaccess] on the same stack contributes access windows, as do
    [localaccess] clauses on the loop directive itself. The iteration space
    is normalized to [lower <= i < upper] with unit step; anything else is
    rejected with a located error, mirroring the OpenACC restriction that
    annotated loops be countable. *)

open Mgacc_minic

type t = {
  loop_id : int;  (** position among the function's parallel loops, from 0 *)
  loop_var : string;
  lower : Ast.expr;
  upper : Ast.expr;  (** exclusive *)
  body : Ast.stmt list;
  clauses : Ast.clause list;  (** clauses of the parallel-loop directive *)
  localaccess : Ast.localaccess_spec list;  (** merged: standalone directive + clause *)
  scalar_reductions : (Ast.redop * string) list;
  array_reductions : (Ast.redop * string) list;
      (** destinations of [reductiontoarray] statements in the body *)
  loop_loc : Loc.t;
}

val of_stmt : loop_id:int -> Ast.stmt -> t option
(** [of_stmt ~loop_id s] is [Some loop] when [s] is a pragma stack whose
    directives include a parallel-loop directive and whose innermost
    statement is a [for] loop; [None] when the stack carries no
    parallel-loop directive. Raises {!Loc.Error} when the directive is
    present but the loop cannot be normalized. *)

val extract : Ast.func -> t list
(** All parallel loops of a function, in source order. Raises {!Loc.Error}
    if an annotated loop cannot be normalized. *)

val check_array_reductions : t -> unit
(** Raises {!Loc.Error}, located at the statement, when the body writes a
    [reductiontoarray] destination with a plain store, or reduces one
    array with two different operators. *)

val localaccess_for : t -> string -> Ast.localaccess_spec option
(** The window declared for a given array, if any. *)

val arrays_mentioned : t -> string list
(** Names of all arrays read or written in the loop body (syntactic),
    sorted, without duplicates. *)

val find_inner_parallel : t -> (t * int) option
(** The first nested [#pragma acc loop] inside the body, if any, as its own
    normalized loop info (with [loop_id = -1]) plus its vector width (the
    [vector(n)] clause, defaulting to 32 — one warp). Kernels with an inner
    parallel loop execute its iterations across vector lanes: occupancy
    multiplies by the width, and memory coalescing is judged against the
    {e inner} index (adjacent lanes differ in it), which is the nested
    parallelism the paper's §VI calls for. *)

val free_vars : t -> string list
(** Names (scalars and arrays) the body uses but does not declare,
    excluding the loop variable: the kernel's parameters. Sorted, without
    duplicates. Scalars that are assigned (but not declared) in the body
    are included — they become firstprivate kernel parameters. *)
