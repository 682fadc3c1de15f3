(* Quickstart: compile and run an iterative OpenACC program, unmodified, on
   1 and 2 simulated GPUs, and compare against the OpenMP baseline.

   The loop runs many sweeps inside one data region: the data loader ships
   the vectors once, reuses the device copies for every sweep (paper
   §IV-C), and copies the result out at region exit — which is exactly why
   the GPUs win despite the PCIe cost. A single sweep would be
   transfer-bound on any machine; keep data resident.

   Run with: dune exec examples/quickstart.exe *)

let source =
  {|
void main() {
  int n = 1000000;
  int sweeps = 20;
  double x[n];
  double y[n];
  double a = 1.0002;
  int i;
  int it;
  for (i = 0; i < n; i++) {
    x[i] = 0.001 * i;
    y[i] = 1.0;
  }
  #pragma acc data copyin(x[0:n]) copy(y[0:n])
  {
    for (it = 0; it < sweeps; it++) {
      #pragma acc parallel loop localaccess(x: stride(1), y: stride(1))
      for (i = 0; i < n; i++) {
        y[i] = a * y[i] + 0.0001 * x[i];
      }
    }
  }
}
|}

let () =
  let program = Mgacc.parse_string ~name:"saxpy.c" source in

  (* Semantic reference: directives reduced to sequential execution. *)
  let ref_env = Mgacc.run_sequential program in
  let expected = Mgacc.float_results ref_env "y" in

  (* OpenMP baseline on the desktop CPU model. *)
  let machine_omp = Mgacc.Machine.desktop () in
  let _, omp = Mgacc.run_openmp ~machine:machine_omp program in

  (* The proposal on 1 and 2 simulated GPUs. *)
  let run_gpus n =
    let config = Mgacc.Rt_config.make ~num_gpus:n (Mgacc.Machine.desktop ()) in
    let env, report = Mgacc.run_acc ~config program in
    let got = Mgacc.float_results env "y" in
    Array.iteri
      (fun i v ->
        if Float.abs (v -. expected.(i)) > 1e-9 *. Float.max 1.0 (Float.abs expected.(i)) then
          failwith (Printf.sprintf "mismatch at %d: %f vs %f" i v expected.(i)))
      got;
    report
  in
  let r1 = run_gpus 1 in
  let r2 = run_gpus 2 in

  Format.printf "results verified against the sequential reference (1 and 2 GPUs)@.@.";
  Format.printf "%a@." Mgacc.Report.pp omp;
  Format.printf "%a@." Mgacc.Report.pp r1;
  Format.printf "%a@." Mgacc.Report.pp r2;
  Format.printf "@.speedup vs OpenMP: 1 GPU %.2fx, 2 GPUs %.2fx@."
    (Mgacc.Report.speedup_vs r1 ~baseline:omp)
    (Mgacc.Report.speedup_vs r2 ~baseline:omp)
