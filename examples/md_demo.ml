(* MD demo: the paper's zero-communication application.

   Runs the Lennard-Jones benchmark across all execution variants on the
   desktop machine and prints a miniature of the paper's Fig. 7 row: MD
   scales with GPUs because the force and neighbor-list arrays distribute
   and the gathered positions are read-only.

   Run with: dune exec examples/md_demo.exe *)

open Mgacc_apps

let () =
  let p = { Md.atoms = 8192; max_neighbors = 32; seed = 42 } in
  let app = Md.app p in
  Format.printf "MD: %d atoms x %d neighbors@.@." p.Md.atoms p.Md.max_neighbors;

  let ref_env = App_common.sequential app in

  let machine = Mgacc.Machine.desktop () in
  let _, omp = App_common.openmp ~machine app in

  let rows = ref [ ("OpenMP(12)", omp) ] in

  let pgi_env, pgi = App_common.pgi ~machine:(Mgacc.Machine.desktop ()) app in
  App_common.check_exn app ~against:ref_env pgi_env;
  rows := ("PGI-style(1)", pgi) :: !rows;

  let _, cuda = Md.run_cuda ~machine:(Mgacc.Machine.desktop ()) p in
  rows := ("CUDA(1)", cuda) :: !rows;

  List.iter
    (fun n ->
      let env, r =
        App_common.proposal (Mgacc.Rt_config.make ~num_gpus:n (Mgacc.Machine.desktop ())) app
      in
      App_common.check_exn app ~against:ref_env env;
      rows := (Printf.sprintf "Proposal(%d)" n, r) :: !rows)
    [ 1; 2 ];

  let t = Mgacc.Table.create ~headers:[ "variant"; "total"; "vs OpenMP"; "GPU-GPU bytes" ] in
  List.iter
    (fun (label, (r : Mgacc.Report.t)) ->
      Mgacc.Table.add_row t
        [
          label;
          Printf.sprintf "%.6fs" r.Mgacc.Report.total_time;
          Printf.sprintf "%.2fx" (Mgacc.Report.speedup_vs r ~baseline:omp);
          Mgacc.Bytesize.to_string r.Mgacc.Report.gpu_gpu_bytes;
        ])
    (List.rev !rows);
  Mgacc.Table.print t;
  Format.printf "@.forces verified against the sequential reference; note zero GPU-GPU bytes.@."
