(* Jacobi: a 1-D three-point stencil — the pattern behind the paper's
   localaccess halo clause (stride(1, left, right)).

   Each GPU holds its block plus one halo element on each side; after a
   sweep writes its block, the communication manager refreshes the stale
   halo copies with tiny peer transfers instead of reloading anything
   through the host. The run prints the P2P traffic so you can see the
   halo exchange.

   (The paper's §VI names multi-dimensional stencils as future work; the
   1-D machinery here is exactly what generalizes.)

   Run with: dune exec examples/jacobi.exe *)

let source ~n ~sweeps =
  Printf.sprintf
    {|
void main() {
  int n = %d;
  int sweeps = %d;
  double a[n];
  double b[n];
  int i;
  int it;
  for (i = 0; i < n; i++) { a[i] = 1.0 * (i %% 23); b[i] = 0.0; }
  #pragma acc data copy(a[0:n]) copy(b[0:n])
  {
    for (it = 0; it < sweeps; it++) {
      #pragma acc parallel loop localaccess(a: stride(1, 1, 1), b: stride(1))
      for (i = 0; i < n; i++) {
        if (i > 0 && i < n - 1) { b[i] = 0.25 * a[i-1] + 0.5 * a[i] + 0.25 * a[i+1]; }
      }
      #pragma acc parallel loop localaccess(b: stride(1, 1, 1), a: stride(1))
      for (i = 0; i < n; i++) {
        if (i > 0 && i < n - 1) { a[i] = 0.25 * b[i-1] + 0.5 * b[i] + 0.25 * b[i+1]; }
      }
    }
  }
}
|}
    n sweeps

let () =
  let src = source ~n:100000 ~sweeps:8 in
  let program = Mgacc.parse_string ~name:"jacobi.c" src in

  (* Correctness against the sequential reference. *)
  let ref_env = Mgacc.run_sequential program in
  let expected = Mgacc.float_results ref_env "a" in

  Format.printf "Jacobi 1-D stencil, 100000 points, 8 sweeps@.@.";
  List.iter
    (fun gpus ->
      let config = Mgacc.Rt_config.make ~num_gpus:gpus (Mgacc.Machine.desktop ()) in
      let env, report = Mgacc.run_acc ~config program in
      let got = Mgacc.float_results env "a" in
      Array.iteri
        (fun i v ->
          if Float.abs (v -. expected.(i)) > 1e-9 then
            failwith (Printf.sprintf "mismatch at %d" i))
        got;
      Format.printf
        "%d GPU(s): total %.6fs (kernels %.6fs, cpu-gpu %.6fs, gpu-gpu %.6fs) — halo traffic %s@."
        gpus report.Mgacc.Report.total_time report.Mgacc.Report.kernel_time
        report.Mgacc.Report.cpu_gpu_time report.Mgacc.Report.gpu_gpu_time
        (Mgacc.Bytesize.to_string report.Mgacc.Report.gpu_gpu_bytes))
    [ 1; 2 ];
  Format.printf "@.results verified on both configurations@."
