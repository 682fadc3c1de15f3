(** Host-side execution of mini-C programs.

    The host program (allocation, initialization, iteration control) is
    compiled once per {!run_program} by {!Kernel_compile}, the same
    closure compiler that builds kernels, and then run; when execution
    reaches an OpenACC construct the corresponding hook fires. Different
    runners plug in different hooks: the sequential reference runner
    executes annotated loops in place, the OpenMP runner times them with
    the CPU model, and the multi-GPU OpenACC runtime distributes them over
    simulated devices.

    A hook's {!env} is the live frame of the function executing the
    directive, seen through the names in force at the pragma. While an
    array is live, {!find_array} returns the physically same view for it;
    loop ids are assigned per source location in first-execution order. *)

open Mgacc_minic

type value = Vint of int | Vfloat of float

type env

type hooks = {
  on_parallel_loop : env -> Mgacc_analysis.Loop_info.t -> unit;
      (** fired instead of executing the annotated loop *)
  on_data_enter : env -> Ast.clause list -> unit;
  on_data_exit : env -> Ast.clause list -> unit;
  on_update_host : env -> Ast.subarray list -> unit;
  on_update_device : env -> Ast.subarray list -> unit;
}

val sequential_hooks : hooks
(** Ignore data directives; execute parallel loops sequentially in the host
    environment (the semantic reference). *)

val run_program : ?hooks:hooks -> Ast.program -> env
(** Typecheck and execute [main] (which must exist and take no
    parameters). [main] and its callees are compiled first, once.
    Returns the final environment of [main] (its frame and the names of
    its body), for inspecting results. *)

val run_loop_sequentially : env -> Mgacc_analysis.Loop_info.t -> unit
(** Execute a parallel loop's iterations in order in the host environment
    (used by {!sequential_hooks} and as the fallback semantics). The env
    must be the one the loop's [on_parallel_loop] hook received; the body
    was compiled once for that loop site. A [break] or [continue] that
    escapes an iteration raises a located {!Loc.Error}. *)

(** {1 Environment access (for hooks and tests)} *)

val eval_int : env -> Ast.expr -> int
val eval_float : env -> Ast.expr -> float
val find_array : env -> string -> View.t
(** Raises [Not_found] if the name is not a live array. *)

val find_array_opt : env -> string -> View.t option
val get_scalar : env -> string -> value
val set_scalar : env -> string -> value -> unit
val program_of : env -> Ast.program
