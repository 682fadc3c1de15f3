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

let parse ~file src =
  Wall.enter Wall.Parse;
  let program = Parser.parse ~file src in
  Wall.leave ();
  program

let parse_string ~name src = parse ~file:name src

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  parse ~file:path src

let compile ?options program = Program_plan.build ?options program

let run_sequential program = Host_interp.run_program program

let run_openmp ?threads ~machine program = Openmp.run ?threads ~machine program

let run_acc ?variant ?with_blame ?machine ~config program =
  (match machine with
  | Some m when m != config.Rt_config.machine ->
      invalid_arg "Mgacc.run_acc: ~machine is not the config's machine"
  | _ -> ());
  Acc_runtime.run ?variant ?with_blame ~config program

let float_results env name = View.snapshot_f (Host_interp.find_array env name)
let int_results env name = View.snapshot_i (Host_interp.find_array env name)
