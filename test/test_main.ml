(* Aggregated test runner: every module contributes a suite. *)

let () =
  Alcotest.run "mgacc"
    [
      ("util", Test_util.suite);
      ("sim", Test_sim.suite);
      ("frontend", Test_frontend.suite);
      ("analysis", Test_analysis.suite);
      ("exec", Test_exec.suite);
      ("gpusim", Test_gpusim.suite);
      ("runtime", Test_runtime.suite);
      ("integration", Test_integration.suite);
      ("apps", Test_apps.suite);
      ("properties", Test_props.suite);
      ("comm", Test_comm.suite);
      ("equivalence", Test_equiv.suite);
      ("samples", Test_samples.suite);
      ("more", Test_more.suite);
      ("corners", Test_corners.suite);
      ("sched", Test_sched.suite);
      ("overlap", Test_overlap.suite);
      ("coherence", Test_coherence.suite);
      ("fusion", Test_fusion.suite);
      ("collective", Test_collective.suite);
      ("fleet", Test_fleet.suite);
      ("artifacts", Test_bench_artifacts.suite);
      ("obs", Test_obs.suite);
      ("golden", Test_golden.suite);
    ]
