(* KMEANS demo: the reductiontoarray extension at work.

   The accumulation loop reduces feature sums into dynamically indexed
   elements of the (replicated) centers accumulator — the pattern standard
   OpenACC cannot express inside a parallel loop. The runtime gives every
   GPU a private partial, then gathers/combines/broadcasts. The demo also
   shows the coalescing layout transformation: with it disabled, the
   strided feature reads slow the kernel down.

   Run with: dune exec examples/kmeans_demo.exe *)

open Mgacc_apps

let () =
  let p = { Kmeans.points = 20000; features = 16; clusters = 5; iterations = 10; seed = 11 } in
  let app = Kmeans.app p in
  Format.printf "KMEANS: %d points x %d features, %d clusters, %d iterations@.@." p.Kmeans.points
    p.Kmeans.features p.Kmeans.clusters p.Kmeans.iterations;

  let ref_env = App_common.sequential app in
  let machine = Mgacc.Machine.desktop () in
  let _, omp = App_common.openmp ~machine app in

  let env2, r2 =
    App_common.proposal (Mgacc.Rt_config.make ~num_gpus:2 (Mgacc.Machine.desktop ())) app
  in
  App_common.check_exn app ~against:ref_env env2;

  (* Ablation: disable the data layout transformation. *)
  let options =
    { Mgacc.Kernel_plan.default_options with Mgacc.Kernel_plan.enable_layout_transform = false }
  in
  let env_nt, r_nt =
    App_common.proposal
      (Mgacc.Rt_config.make ~num_gpus:2 ~translator:options (Mgacc.Machine.desktop ()))
      app
  in
  App_common.check_exn app ~against:ref_env env_nt;

  Format.printf "OpenMP(12):                total %.6fs@." omp.Mgacc.Report.total_time;
  Format.printf "Proposal(2):               total %.6fs (%.2fx), kernels %.6fs, gpu-gpu %s@."
    r2.Mgacc.Report.total_time
    (Mgacc.Report.speedup_vs r2 ~baseline:omp)
    r2.Mgacc.Report.kernel_time
    (Mgacc.Bytesize.to_string r2.Mgacc.Report.gpu_gpu_bytes);
  Format.printf "Proposal(2), no transpose: total %.6fs (%.2fx), kernels %.6fs@."
    r_nt.Mgacc.Report.total_time
    (Mgacc.Report.speedup_vs r_nt ~baseline:omp)
    r_nt.Mgacc.Report.kernel_time;
  Format.printf
    "@.the layout transformation speeds the assignment kernel by %.1fx; results verified.@."
    (r_nt.Mgacc.Report.kernel_time /. r2.Mgacc.Report.kernel_time)
