(* Tests for demand-driven inter-GPU coherence (--coherence lazy): the
   off-switch identity guarantee, functional equivalence with the eager
   protocol on whole applications and on generated affine programs, and
   the traffic behaviors the protocol exists for — window-limited dirty
   shipping, deferral of unread reduction results, on-demand pulls and
   the binomial broadcast tree. See docs/COHERENCE.md. *)

open Mgacc_apps
module Rt_config = Mgacc.Rt_config

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let desktop () = Mgacc.Machine.desktop ()
let supernode () = Mgacc.Machine.supernode ()
let cluster4 () = Mgacc.Machine.cluster ~nodes:2 ~gpus_per_node:2 ()

let bfs_small = Bfs.app { Bfs.nodes = 12000; max_degree = 10; seed = 5 }

let kmeans_small =
  Kmeans.app { Kmeans.points = 4000; features = 12; clusters = 5; iterations = 6; seed = 11 }

let md_small = Md.app { Md.atoms = 400; max_neighbors = 8; seed = 17 }
let spmv_small = Spmv.app { Spmv.rows = 3000; width = 8; iterations = 4; seed = 19 }
let mc_small = Montecarlo.app { Montecarlo.paths = 3000; steps = 8; bins = 32; seed = 29 }
let five_apps = [ bfs_small; kmeans_small; md_small; spmv_small; mc_small ]

(* ---------------- whole-application equivalence ---------------- *)

let test_lazy_results_match_sequential () =
  (* Lazy coherence defers and re-routes transfers but every element a
     kernel or the host reads must be valid by then: all five apps must
     match the sequential reference exactly, under barrier and overlap
     execution. *)
  List.iter
    (fun app ->
      let reference = App_common.sequential app in
      let env, _ =
        App_common.proposal (Rt_config.make ~coherence:Rt_config.Lazy ~num_gpus:3 (supernode ()))
          app
      in
      App_common.check_exn app ~against:reference env;
      let env_ov, _ =
        App_common.proposal
          (Rt_config.make ~coherence:Rt_config.Lazy ~overlap:true ~num_gpus:2 (desktop ()))
          app
      in
      App_common.check_exn app ~against:reference env_ov)
    five_apps

let test_eager_is_the_default () =
  (* [--coherence eager] must be byte-for-byte the pre-protocol path: a
     run with the flag matches a run with no flag at all, down to the
     exact simulated times; and on one GPU the lazy flag is inert. *)
  let _, r_default = App_common.proposal (Rt_config.make ~num_gpus:2 (desktop ())) bfs_small in
  let _, r_eager =
    App_common.proposal (Rt_config.make ~coherence:Rt_config.Eager ~num_gpus:2 (desktop ()))
      bfs_small
  in
  check Alcotest.bool "identical total" true
    (Float.equal r_default.Mgacc.Report.total_time r_eager.Mgacc.Report.total_time);
  check Alcotest.bool "identical kernel time" true
    (Float.equal r_default.Mgacc.Report.kernel_time r_eager.Mgacc.Report.kernel_time);
  check Alcotest.bool "identical gpu-gpu time" true
    (Float.equal r_default.Mgacc.Report.gpu_gpu_time r_eager.Mgacc.Report.gpu_gpu_time);
  check Alcotest.int "identical p2p traffic" r_default.Mgacc.Report.gpu_gpu_bytes
    r_eager.Mgacc.Report.gpu_gpu_bytes;
  check Alcotest.int "identical h2d traffic" r_default.Mgacc.Report.cpu_gpu_bytes
    r_eager.Mgacc.Report.cpu_gpu_bytes;
  check Alcotest.int "eager defers nothing" 0 r_default.Mgacc.Report.coh_deferred_bytes;
  let _, r1 = App_common.proposal (Rt_config.make ~num_gpus:1 (desktop ())) bfs_small in
  let _, r1_lazy =
    App_common.proposal (Rt_config.make ~coherence:Rt_config.Lazy ~num_gpus:1 (desktop ()))
      bfs_small
  in
  check Alcotest.bool "single GPU: lazy is inert" true
    (Float.equal r1.Mgacc.Report.total_time r1_lazy.Mgacc.Report.total_time)

(* ---------------- generated-program equivalence (QCheck) ---------------- *)

(* Two parallel loops over replicated arrays: a strided affine writer
   (dirty runs with gaps) followed by a reader whose subscript is another
   affine form — ascending, descending or shifted. The consumer-window
   analysis may predict any subset; whatever it defers must be pulled
   before the read, so eager and lazy runs must agree element-for-element
   (exact float equality: both copy the same values, nothing is
   recomputed differently). *)
let program_of (n, stride, off, shape) =
  let m = n / stride in
  let read_expr =
    match shape mod 3 with
    | 0 -> "i" (* identity *)
    | 1 -> Printf.sprintf "%d - i" (n - 1) (* descending *)
    | _ -> Printf.sprintf "i / 2 + %d" (off mod (n / 2)) (* shifted, non-unit *)
  in
  Printf.sprintf
    {|void main() {
  int n = %d; int m = %d;
  double a[n]; double b[n]; int i;
  for (i = 0; i < n; i++) { a[i] = 0.25 * i; b[i] = 0.0; }
  #pragma acc parallel loop
  for (i = 0; i < m; i++) { a[i * %d + %d] = a[i * %d + %d] + 1.5; }
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { b[i] = a[%s] * 2.0 + 1.0; }
}|}
    n m stride off stride off read_expr

let run_program ~coherence ~num_gpus source =
  let program = Mgacc.parse_string ~name:"gen.c" source in
  let config = Rt_config.make ~num_gpus ~coherence (supernode ()) in
  let env, _ = Mgacc.run_acc ~config program in
  (Mgacc.float_results env "a", Mgacc.float_results env "b")

let gen_case =
  QCheck2.Gen.(
    int_range 16 160 >>= fun n ->
    int_range 1 4 >>= fun stride ->
    int_range 0 1000 >>= fun shape ->
    int_range 0 20 >>= fun off -> return (n, stride, off mod stride, shape))

let test_qcheck_lazy_equals_eager =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"lazy == eager element-wise on affine programs" gen_case
       (fun ((_, _, _, shape) as case) ->
         let src = program_of case in
         let gpus = 2 + (shape mod 2) in
         let ea, eb = run_program ~coherence:Rt_config.Eager ~num_gpus:gpus src in
         let la, lb = run_program ~coherence:Rt_config.Lazy ~num_gpus:gpus src in
         Array.for_all2 Float.equal ea la && Array.for_all2 Float.equal eb lb))

(* ---------------- protocol behaviors ---------------- *)

let run_src ~coherence ~num_gpus ~machine source =
  let program = Mgacc.parse_string ~name:"coh.c" source in
  let config = Rt_config.make ~num_gpus ~coherence machine in
  Mgacc.run_acc ~config program

(* An iterative two-phase program: the second time around, the consumer's
   iteration split is known, so each writer ships each destination only
   the slice of its dirty run that the destination will read. *)
let windowed_src =
  {|void main() {
  int n = 4096; int t;
  double a[n]; double b[n]; int i;
  for (i = 0; i < n; i++) { a[i] = 0.25 * i; b[i] = 0.0; }
  for (t = 0; t < 4; t++) {
    #pragma acc parallel loop
    for (i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
    #pragma acc parallel loop
    for (i = 0; i < n; i++) { b[i] = b[i] + a[i] * 0.5; }
  }
}|}

let test_window_limits_shipping () =
  let machine = supernode () in
  let _, eager = run_src ~coherence:Rt_config.Eager ~num_gpus:3 ~machine windowed_src in
  let machine = supernode () in
  let env, lz = run_src ~coherence:Rt_config.Lazy ~num_gpus:3 ~machine windowed_src in
  (* Each GPU writes and then re-reads only its own third of [a] and [b]:
     nearly all eager all-pairs traffic is deferred, and nobody ever
     pulls it back except the final copyout of replica 0. *)
  let eager_coh = eager.Mgacc.Report.coh_shipped_bytes in
  let lazy_coh = lz.Mgacc.Report.coh_shipped_bytes + lz.Mgacc.Report.coh_pulled_bytes in
  check Alcotest.bool "eager ships replicas around" true (eager_coh > 0);
  check Alcotest.bool "lazy ships under half of eager" true (lazy_coh * 2 < eager_coh);
  check Alcotest.bool "deferral happened" true (lz.Mgacc.Report.coh_deferred_bytes > 0);
  (* Results still exact: the self-owned slices never left home. *)
  let program = Mgacc.parse_string ~name:"coh.c" windowed_src in
  let ref_env = Mgacc.run_sequential program in
  Array.iteri
    (fun i v ->
      if not (Float.equal v (Mgacc.float_results env "b").(i)) then
        Alcotest.failf "b[%d]: %.17g vs %.17g" i (Mgacc.float_results ref_env "b").(i) v)
    (Mgacc.float_results ref_env "b")

(* A reduction whose result no later loop reads on device: lazy mode
   gathers the partials but defers the broadcast entirely; the bytes
   surface only in the final host copyout of replica 0. *)
let deferred_reduction_src =
  {|void main() {
  int n = 30000; int bins = 128;
  double data[n]; double hist[bins];
  int i; int seed = 7;
  for (i = 0; i < n; i++) {
    seed = (seed * 1103515245 + 12345) % 2147483648;
    data[i] = (seed % 10000) / 10000.0;
  }
  for (i = 0; i < bins; i++) { hist[i] = 0.0; }
  #pragma acc data copyin(data[0:n]) copy(hist[0:bins])
  {
    #pragma acc parallel loop localaccess(data: stride(1))
    for (i = 0; i < n; i++) {
      int b = (int)(data[i] * 128.0);
      int b2 = min(b, bins - 1);
      #pragma acc reductiontoarray(+: hist)
      hist[b2] += 1.0;
    }
  }
}|}

let test_unread_reduction_deferred () =
  let machine = supernode () in
  let _, eager =
    run_src ~coherence:Rt_config.Eager ~num_gpus:3 ~machine deferred_reduction_src
  in
  let machine = supernode () in
  let env, lz =
    run_src ~coherence:Rt_config.Lazy ~num_gpus:3 ~machine deferred_reduction_src
  in
  check Alcotest.bool "broadcast bytes deferred" true (lz.Mgacc.Report.coh_deferred_bytes > 0);
  check Alcotest.int "nothing pulled back to a device" 0 lz.Mgacc.Report.coh_pulled_bytes;
  check Alcotest.bool "lazy ships less than eager" true
    (lz.Mgacc.Report.coh_shipped_bytes < eager.Mgacc.Report.coh_shipped_bytes);
  check Alcotest.bool "something was elided outright" true
    (Mgacc.Report.coh_elided_bytes lz > 0);
  let program = Mgacc.parse_string ~name:"coh.c" deferred_reduction_src in
  let ref_env = Mgacc.run_sequential program in
  let e = Mgacc.float_results ref_env "hist" and g = Mgacc.float_results env "hist" in
  Array.iteri (fun i v -> check (Alcotest.float 1e-9) "hist bin" v g.(i)) e

(* A reduction a later loop does read: lazy mode must re-publish the
   combined result, and at 4 GPUs the binomial tree does it in two
   rounds. Exercised under both barrier and overlap execution on the
   2x2 cluster (the overlap DAG gates round r+1 on round r's arrival). *)
let consumed_reduction_src =
  {|void main() {
  int n = 20000; int bins = 64; int t;
  double data[n]; double hist[bins]; double sums[bins];
  int i; int seed = 3;
  for (i = 0; i < n; i++) {
    seed = (seed * 1103515245 + 12345) % 2147483648;
    data[i] = (seed % 10000) / 10000.0;
  }
  for (i = 0; i < bins; i++) { hist[i] = 0.0; sums[i] = 0.0; }
  for (t = 0; t < 3; t++) {
    #pragma acc parallel loop localaccess(data: stride(1))
    for (i = 0; i < n; i++) {
      int b = (int)(data[i] * 64.0);
      int b2 = min(b, bins - 1);
      #pragma acc reductiontoarray(+: hist)
      hist[b2] += 1.0;
    }
    #pragma acc parallel loop
    for (i = 0; i < bins; i++) { sums[i] = sums[i] + hist[i]; }
  }
}|}

let test_consumed_reduction_tree_bcast () =
  let run ~overlap =
    let machine = cluster4 () in
    let program = Mgacc.parse_string ~name:"coh.c" consumed_reduction_src in
    let config =
      Rt_config.make ~num_gpus:4 ~coherence:Rt_config.Lazy ~overlap machine
    in
    Mgacc.run_acc ~config program
  in
  let program = Mgacc.parse_string ~name:"coh.c" consumed_reduction_src in
  let ref_env = Mgacc.run_sequential program in
  let reference = Mgacc.float_results ref_env "sums" in
  List.iter
    (fun overlap ->
      let env, r = run ~overlap in
      check Alcotest.bool "combined result re-published" true
        (r.Mgacc.Report.coh_shipped_bytes > 0);
      let got = Mgacc.float_results env "sums" in
      Array.iteri (fun i v -> check (Alcotest.float 1e-9) "sums" v got.(i)) reference)
    [ false; true ]

let suite =
  [
    tc "lazy: five apps match the sequential reference" test_lazy_results_match_sequential;
    tc "lazy: eager flag equals the default run" test_eager_is_the_default;
    test_qcheck_lazy_equals_eager;
    tc "lazy: consumer windows limit dirty shipping" test_window_limits_shipping;
    tc "lazy: unread reduction broadcast is deferred" test_unread_reduction_deferred;
    tc "lazy: consumed reduction re-publishes via the tree" test_consumed_reduction_tree_bcast;
  ]
