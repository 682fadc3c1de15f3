(** Kernel launching: view construction, functional execution, cost capture.

    For each GPU, the compiled loop body runs over that GPU's iteration
    range against views that implement the translator's instrumentation:
    replicated writes mark dirty bits, distributed writes are ownership-
    checked and missed writes buffered, reduction updates go to the GPU's
    partial. Each GPU's partition runs in a frame of its own, whose cost
    counter (charged by the compiled code and by these views) feeds the
    roofline model. *)

open Mgacc_minic

type compiled = {
  kc : Mgacc_exec.Kernel_compile.t;
  param_types : (string * Ast.typ) list;
}

val compile_kernel :
  Mgacc_translator.Kernel_plan.t ->
  param_types:(string * Ast.typ) list ->
  compiled
(** Compile the loop body with the plan's coalescing classifier. Under a
    2-D plan ([tile2d] present) the inner column loop is rewritten to
    iterate [[__col_lo, __col_hi)] and the two bounds are appended as int
    parameters, bound per GPU by {!run_on_gpus}. *)

exception Window_violation of { array : string; index : int; gpu : int; what : string }
(** A kernel accessed an element outside what the [localaccess] directive
    declared — the directive is wrong (runtime validation of the paper's
    §III-C contract that iteration [i] stays inside its window). *)

(** {1 Device views}

    The views {!run_on_gpus} binds, one per array parameter and GPU. Each
    exposes a read window ({!Mgacc_exec.View.t.lo}): the whole array for
    replicated and reduction views, the resident window for a 1-D
    distributed part, nothing for a tiled one. Reads outside the window
    go through the accessors, which raise {!Mgacc_exec.View.Bounds}
    outside the array and {!Window_violation} outside a distributed
    part's window. *)

val replicated_view :
  Darray.t -> gpu:int -> dirty:Dirty.t option -> cost:Mgacc_gpusim.Cost.t -> Mgacc_exec.View.t
(** GPU [gpu]'s replica; with [dirty], each write marks its element and
    charges [cost] two int ops. *)

val reduction_view : Darray.t -> gpu:int -> Reduction.t -> Mgacc_exec.View.t
(** A reduction destination: reads see the replica, reduction updates go
    to GPU [gpu]'s partial, plain writes raise [Invalid_argument]. *)

val distributed_view :
  Darray.t -> gpu:int -> miss_check:bool -> cost:Mgacc_gpusim.Cost.t -> Mgacc_exec.View.t
(** GPU [gpu]'s part (1-D or tiled): reads must stay in its window;
    writes outside the owned block are buffered misses with [miss_check],
    else {!Window_violation}. *)

type gpu_run = {
  gpu : int;
  iterations : int;
  cost : Mgacc_gpusim.Cost.t;  (** this GPU's dynamic cost: its frame's counter *)
}

val run_on_gpus :
  ?col_bounds:(int * int) array ->
  Mgacc_translator.Kernel_plan.t ->
  compiled ->
  ranges:Task_map.range array ->
  get_scalar:(string -> Mgacc_exec.Host_interp.value) ->
  get_darray:(string -> Darray.t) ->
  get_reduction:(string -> Reduction.t option) ->
  gpu_run list * (string * Ast.redop * Mgacc_exec.Host_interp.value list) list
(** Execute every GPU's share functionally. Returns per-GPU costs and, per
    scalar-reduction variable, the per-GPU partial values (in GPU order)
    for the caller to fold into the host scalar. Scalar reduction
    variables are bound to the operator identity inside the kernel; other
    scalars are firstprivate copies of the host values. [col_bounds] gives
    each GPU's owned column block under a 2-D launch; omitted, the
    sentinel bounds make a tile2d kernel behave exactly like the
    unrestricted 1-D one. *)
