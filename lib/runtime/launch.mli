(** Kernel launching: view construction, functional execution, cost capture.

    For each GPU, the compiled loop body runs over that GPU's iteration
    range against views that implement the translator's instrumentation:
    replicated writes mark dirty bits, distributed writes are ownership-
    checked and missed writes buffered, reduction updates go to the GPU's
    partial. Each GPU's partition runs in a frame of its own, whose cost
    counter (charged by the compiled code and by these views) feeds the
    roofline model.

    {b Domains.} A launch has two phases. The bind phase runs on the
    calling domain, in GPU order: it builds each GPU's frame and views,
    binds its scalars, and then proves the frame for the GPU's iteration
    range ({!Mgacc_exec.Kernel_compile.t.prove}): which strip operands stay
    inside their windows on every entry of this launch, written into the
    frame's proof slots, which the GPU's task only reads. Binding allocates
    nothing for the proof, and a kernel without strip loops proves nothing.
    {!view_for}'s callbacks, {!Darray}, {!Reduction} and
    {!Mgacc_gpusim.Memory} are only ever used from that domain. The
    run phase runs each GPU's iteration range as one task of the pool the
    caller passes ({!run_on_gpus}), the caller running tasks too; a launch
    with one GPU with work runs it on the caller and does not force the
    pool. Tasks may run at the same time because each
    touches only its own frame and the views bound in it: GPU [g]'s
    replica, dirty bits, distributed part and miss buffer (on [g]'s own
    {!Mgacc_gpusim.Memory.t}), its reduction partial, and its frame's cost
    counter; the one array reduction state shared by all GPUs,
    [touched], is written only at the task's own index. A compiled
    kernel's closures capture no mutable state that runs
    ({!Mgacc_exec.Kernel_compile}). Results are read back per GPU after
    the pool returns, so the order in which partitions finish changes no
    number.

    Allocation counters ([Gc.minor_words], [Gc.allocated_bytes]) count
    the calling domain only (OCaml 5.1), so whatever a task allocates on
    a worker is missing from the caller's; kernels allocate nothing per
    iteration (tier-1 "launch: tasks allocate nothing per iteration").
    OCaml 5.1 also refuses [Unix.fork] once a second domain has run: a
    process that forks must do so before its first multi-GPU launch. *)

open Mgacc_minic

type compiled
(** A compiled kernel, with the per-task arrays its launches reuse. One
    domain launches it at a time. *)

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
    charges [cost] two int ops. Exported, with {!reduction_view} and
    {!distributed_view}, for the tests that drive single loads and stores on a
    Launch view and count its allocation per iteration ("view: the inline read
    agrees with the accessors on every Launch view", "view: device views never
    write in place ...", "kernel: a double body allocates nothing per
    iteration"); a whole launch hides each view behind binding, reconcile and
    the pool. *)

val reduction_view : Darray.t -> gpu:int -> Reduction.t -> Mgacc_exec.View.t
(** A reduction destination: reads see the replica, reduction updates go to
    GPU [gpu]'s partial, plain writes raise [Invalid_argument]. Exported with
    {!replicated_view}, for the same tests. *)

val distributed_view :
  Darray.t -> gpu:int -> miss_check:bool -> cost:Mgacc_gpusim.Cost.t -> Mgacc_exec.View.t
(** GPU [gpu]'s part (1-D or tiled): reads must stay in its window; writes
    outside the owned block are buffered misses with [miss_check], else
    {!Window_violation}. Exported with {!replicated_view}, for the same
    tests. *)

type gpu_run = {
  gpu : int;
  iterations : int;
  cost : Mgacc_gpusim.Cost.t;  (** this GPU's dynamic cost: its frame's counter *)
}

val run_on_gpus :
  ?col_bounds:(int * int) array ->
  Mgacc_translator.Kernel_plan.t ->
  compiled ->
  pool:Mgacc_util.Pool.t Lazy.t ->
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
    unrestricted 1-D one.

    A launch raises what running the GPUs one after another would: the
    fault of the lowest GPU that faults, in binding or in its iterations,
    and no GPU after a binding fault runs. The one difference from
    sequential order: when a lower GPU faults, the other bound partitions
    still run to completion before the launch raises. Either way the
    launch is abandoned; no caller reads its costs, replicas or dirty
    bits. *)

val task_words : (gpu:int -> iterations:int -> words:float -> unit) option ref
(** Test instrumentation, [None] in every run of the program. When set, each
    task reads [Gc.minor_words] around its iterations, on the domain that runs
    them, and reports the difference, from that domain. Read by "launch: tasks
    allocate nothing per iteration"; the counters of a pool worker's domain
    are visible nowhere else. *)
