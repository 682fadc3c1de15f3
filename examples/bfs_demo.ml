(* BFS demo: the paper's hardest case — irregular writes on a replicated
   array.

   Every frontier sweep scatters levels[j] = level+1 through data-dependent
   indices; the replicas reconcile after each kernel via the two-level
   dirty-bit mechanism. The demo compares two- vs single-level dirty bits
   and a chunk-size sweep, the knobs of paper §IV-D-1.

   Run with: dune exec examples/bfs_demo.exe *)

open Mgacc_apps

let () =
  let p = { Bfs.nodes = 50000; max_degree = 16; seed = 5 } in
  let app = Bfs.app p in
  Format.printf "BFS: %d nodes, max degree %d@.@." p.Bfs.nodes p.Bfs.max_degree;

  let ref_env = App_common.sequential app in
  let levels = Mgacc.int_results ref_env "levels" in
  let depth = Array.fold_left max 0 levels in
  Format.printf "graph depth: %d levels@.@." depth;

  let env2, r2 =
    App_common.proposal (Mgacc.Rt_config.make ~num_gpus:2 (Mgacc.Machine.desktop ())) app
  in
  App_common.check_exn app ~against:ref_env env2;

  let env1l, r1l =
    App_common.proposal
      (Mgacc.Rt_config.make ~two_level_dirty:false ~num_gpus:2 (Mgacc.Machine.desktop ()))
      app
  in
  App_common.check_exn app ~against:ref_env env1l;

  Format.printf "two-level dirty bits (1MB chunks): gpu-gpu %s in %.6fs@."
    (Mgacc.Bytesize.to_string r2.Mgacc.Report.gpu_gpu_bytes)
    r2.Mgacc.Report.gpu_gpu_time;
  Format.printf "single-level dirty bits:           gpu-gpu %s in %.6fs@.@."
    (Mgacc.Bytesize.to_string r1l.Mgacc.Report.gpu_gpu_bytes)
    r1l.Mgacc.Report.gpu_gpu_time;

  Format.printf "chunk-size sweep (2 GPUs):@.";
  List.iter
    (fun chunk ->
      let env, r =
        App_common.proposal
          (Mgacc.Rt_config.make ~chunk_bytes:chunk ~num_gpus:2 (Mgacc.Machine.desktop ()))
          app
      in
      App_common.check_exn app ~against:ref_env env;
      Format.printf "  chunk %-8s gpu-gpu %-10s total %.6fs@." (Mgacc.Bytesize.to_string chunk)
        (Mgacc.Bytesize.to_string r.Mgacc.Report.gpu_gpu_bytes)
        r.Mgacc.Report.total_time)
    [ 16 * 1024; 64 * 1024; 256 * 1024; 1024 * 1024 ];
  Format.printf "@.levels verified against the sequential reference on every configuration.@."
