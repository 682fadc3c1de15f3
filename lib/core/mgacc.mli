(** Mgacc: a multi-GPU OpenACC compiler and runtime on a simulated GPU
    substrate.

    OCaml reproduction of Komoda, Miwa, Nakamura & Maruyama, "Integrating
    Multi-GPU Execution in an OpenACC Compiler" (ICPP 2013). Programs are
    written in a C subset with OpenACC directives plus the paper's two
    extensions — [localaccess] (per-iteration read windows, enabling the
    distribution-based placement policy) and [reductiontoarray]
    (hierarchical reductions into dynamically indexed array elements) — and
    execute on one or more simulated GPUs, on the simulated multicore CPU
    (OpenMP baseline), or sequentially (semantic reference).

    Quickstart:
    {[
      let program = Mgacc.parse_string ~name:"vecadd.c" source in
      let machine = Mgacc.Machine.desktop () in
      let _env, report = Mgacc.run_acc ~config:(Mgacc.Rt_config.make machine) program in
      Format.printf "%a@." Mgacc.Report.pp report
    ]} *)

(** {1 Re-exported components} *)

module Ast = Mgacc_minic.Ast
module Loc = Mgacc_minic.Loc
module Parser = Mgacc_minic.Parser
module Pretty = Mgacc_minic.Pretty
module Typecheck = Mgacc_minic.Typecheck
module Loop_info = Mgacc_analysis.Loop_info
module Access = Mgacc_analysis.Access
module Array_config = Mgacc_analysis.Array_config
module Coalesce = Mgacc_analysis.Coalesce
module Kernel_plan = Mgacc_translator.Kernel_plan
module Program_plan = Mgacc_translator.Program_plan
module Host_interp = Mgacc_exec.Host_interp
module View = Mgacc_exec.View
module Spec = Mgacc_gpusim.Spec
module Machine = Mgacc_gpusim.Machine
module Cuda = Mgacc_gpusim.Cuda
module Cost = Mgacc_gpusim.Cost
module Memory = Mgacc_gpusim.Memory
module Trace = Mgacc_sim.Trace
module Metrics = Mgacc_obs.Metrics
module Critical_path = Mgacc_obs.Critical_path
module Blame = Mgacc_obs.Blame
module Wall = Mgacc_obs.Wall
module Sched_policy = Mgacc_sched.Policy
module Sched_feedback = Mgacc_sched.Feedback
module Scheduler = Mgacc_sched.Scheduler
module Rt_config = Mgacc_runtime.Rt_config
module Session = Mgacc_runtime.Session
module Fleet = Mgacc_fleet.Fleet
module Fleet_job = Mgacc_fleet.Job
module Plan_cache = Mgacc_fleet.Plan_cache
module Admission = Mgacc_fleet.Admission
module Collective = Mgacc_runtime.Collective
module Comm_manager = Mgacc_runtime.Comm_manager
module Fabric = Mgacc_gpusim.Fabric
module Report = Mgacc_runtime.Report
module Acc_runtime = Mgacc_runtime.Acc_runtime
module Launch = Mgacc_runtime.Launch
module Profiler = Mgacc_runtime.Profiler
module Openmp = Mgacc_runtime.Openmp
module Xorshift = Mgacc_util.Xorshift
module Table = Mgacc_util.Table
module Bytesize = Mgacc_util.Bytesize

(** {1 Front door} *)

val parse_string : name:string -> string -> Ast.program
(** Parse a translation unit from a string. Raises {!Loc.Error}. *)

val parse_file : string -> Ast.program

val compile : ?options:Kernel_plan.options -> Ast.program -> Program_plan.t
(** Typecheck and plan every parallel loop. *)

val run_sequential : Ast.program -> Host_interp.env
(** Execute with directives reduced to their sequential semantics: the
    correctness oracle. *)

val run_openmp :
  ?threads:int -> machine:Machine.t -> Ast.program -> Host_interp.env * Report.t
(** The OpenMP baseline on the machine's CPU model. *)

val run_acc :
  ?variant:string ->
  ?with_blame:bool ->
  ?machine:Machine.t ->
  config:Rt_config.t ->
  Ast.program ->
  Host_interp.env * Report.t
(** The multi-GPU OpenACC runtime (the paper's proposal) on the config's
    machine. The config selects GPU count, dirty-bit chunk size and the
    mode switches ([Rt_config.make machine] is the paper's settings).
    [machine] is accepted only so callers written against the older
    signature still compile: it must be the config's machine (physically),
    else [Invalid_argument].
    [with_blame] attaches the critical-path blame summary to the report
    (see {!Report.pp_blame}); it never changes the timings. *)

val float_results : Host_interp.env -> string -> float array
(** Snapshot a host array after a run (raises [Not_found] if absent). *)

val int_results : Host_interp.env -> string -> int array
