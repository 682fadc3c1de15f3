(** The multi-GPU OpenACC runtime: the system of paper §IV-A.

    Wires the data loader, the kernel launcher and the inter-GPU
    communication manager into the host interpreter's hooks. Each parallel
    loop executes as one load → compute → reconcile step through a single
    launch path whose gate, chosen once per launch from
    [Rt_config.overlap], orders its phases: the barrier gate makes every
    phase wait for the join of the previous one (the paper's BSP step,
    bit for bit); the overlap gate starts every op as soon as exactly its
    dependencies have landed (docs/OVERLAP.md). Every movement is charged
    to the simulated machine and, at one charge point, to the profiler
    under the Fig. 8 categories and to the blame ledger.

    Arrays not covered by any [data] region stay resident on the devices
    until {!finish}, which flushes written data back to the host (real
    OpenACC would copy such arrays around every parallel region; keeping
    them resident matches how the paper's tuned benchmarks behave, and the
    benchmarks here always use explicit [data] regions anyway). *)

val run :
  ?variant:string ->
  ?with_blame:bool ->
  config:Rt_config.t ->
  Mgacc_minic.Ast.program ->
  Mgacc_exec.Host_interp.env * Report.t
(** Compile (plan) and execute a program on the simulated machine with the
    OpenACC multi-GPU runtime; returns the final host environment (for
    result inspection) and the run report. The run executes on the
    config's machine, which the report names ([Rt_config.make machine]
    is all of [machine]'s GPUs with the paper's settings). [variant] labels the
    report. It is {!execute} plus {!report} on a fresh session. The
    machine is reset first, so back-to-back runs in one process match
    fresh-process runs bit for bit. With [with_blame] the report carries the
    critical-path blame summary ({!Report.pp_blame}, the [--blame]
    flag); timings are unaffected. *)

type t = Session.t
(** An open runtime session, for callers that need to drive the host
    interpreter themselves (the fleet creates these directly with
    [Session.create ~tenant ~start] on a shared machine). *)

val create : Rt_config.t -> Mgacc_translator.Program_plan.t -> t
val hooks : t -> Mgacc_exec.Host_interp.hooks

val finish : t -> unit
(** Flush and free every remaining device array; charge the transfers.
    Under the session's [keep_resident] config (fleet warm-pool mode)
    only copyout data is flushed and allocations stay live for
    {!Session.spill_all}. *)

val execute : t -> Mgacc_exec.Host_interp.env
(** Drive the session's program (the plans' program, which fusion may
    have rewritten) through it: [hooks] + interpret + [finish]. *)

val report : ?variant:string -> t -> Report.t
(** Snapshot the session's profiler into a report (queue wait included). *)

val blame : t -> Mgacc_obs.Blame.summary
(** Summarize the session's blame ledger against the machine trace:
    critical path, per-category exposed/hidden split (reconciling with
    the profiler by construction) and the per-label blame rows. *)

val profiler : t -> Profiler.t
val now : t -> float
