open Mgacc

type params = { points : int; features : int; clusters : int; iterations : int; seed : int }

let default_params = { points = 20000; features = 16; clusters = 5; iterations = 10; seed = 11 }
let paper_params = { points = 494020; features = 34; clusters = 5; iterations = 37; seed = 11 }

let source p =
  Printf.sprintf
    {|
void main() {
  int n = %d;
  int f = %d;
  int k = %d;
  int iters = %d;
  int seed = %d;
  double x[n*f];
  int membership[n];
  double centers[k*f];
  double newcenters[k*f];
  int counts[k];
  int i;
  int j;
  for (i = 0; i < n; i++) {
    %s
    int c = seed %% k;
    for (j = 0; j < f; j++) {
      %s
      x[i*f + j] = 10.0 * c + (seed %% 1000) / 100.0;
    }
  }
  for (i = 0; i < n; i++) { membership[i] = -1; }
  for (i = 0; i < k*f; i++) { centers[i] = x[i]; }
  #pragma acc data copyin(x[0:n*f]) copy(membership[0:n]) copy(centers[0:k*f])
  {
    int it;
    for (it = 0; it < iters; it++) {
      int delta = 0;
      #pragma acc parallel loop reduction(+: delta) localaccess(x: stride(f), membership: stride(1))
      for (i = 0; i < n; i++) {
        double best = 1.0e30;
        int bc = 0;
        int c;
        int j2;
        for (c = 0; c < k; c++) {
          double dist = 0.0;
          for (j2 = 0; j2 < f; j2++) {
            double d = x[i*f + j2] - centers[c*f + j2];
            dist = dist + d*d;
          }
          if (dist < best) { best = dist; bc = c; }
        }
        if (bc != membership[i]) { delta = delta + 1; membership[i] = bc; }
      }
      int z;
      for (z = 0; z < k*f; z++) { newcenters[z] = 0.0; }
      for (z = 0; z < k; z++) { counts[z] = 0; }
      #pragma acc update device(newcenters[0:k*f], counts[0:k])
      ;
      #pragma acc parallel loop localaccess(x: stride(f), membership: stride(1))
      for (i = 0; i < n; i++) {
        int c = membership[i];
        int j3;
        #pragma acc reductiontoarray(+: counts)
        counts[c] = counts[c] + 1;
        for (j3 = 0; j3 < f; j3++) {
          #pragma acc reductiontoarray(+: newcenters)
          newcenters[c*f + j3] = newcenters[c*f + j3] + x[i*f + j3];
        }
      }
      #pragma acc update host(newcenters[0:k*f], counts[0:k])
      ;
      for (z = 0; z < k; z++) {
        if (counts[z] > 0) {
          int j4;
          for (j4 = 0; j4 < f; j4++) {
            centers[z*f + j4] = newcenters[z*f + j4] / counts[z];
          }
        }
      }
      #pragma acc update device(centers[0:k*f])
      ;
    }
  }
}
|}
    p.points p.features p.clusters p.iterations p.seed Workloads.lcg_c_snippet
    Workloads.lcg_c_snippet

let app p =
  {
    App_common.name = "kmeans";
    source = source p;
    result_arrays = [ "membership"; "centers" ];
  }

(* ------------------------------------------------------------------ *)
(* Hand-written CUDA baseline (single GPU).                            *)
(* ------------------------------------------------------------------ *)

let run_cuda ~machine p =
  let n = p.points and f = p.features and k = p.clusters in
  let x = Workloads.kmeans_points ~seed:p.seed ~points:n ~features:f ~clusters:k in
  let ctx = Cuda.init machine in
  let profiler = Mgacc_runtime.Profiler.create () in
  (* An expert transposes the feature matrix on the host so device reads
     coalesce — the optimization the localaccess layout transform mimics. *)
  let xt = Array.make (n * f) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to f - 1 do
      xt.((j * n) + i) <- x.((i * f) + j)
    done
  done;
  let d_x = Cuda.malloc_floats ctx (n * f) in
  let d_membership = Cuda.malloc_ints ctx n in
  let d_centers = Cuda.malloc_floats ctx (k * f) in
  let t0 = Cuda.now ctx in
  Cuda.memcpy_h2d_floats ctx ~dst:d_x xt;
  Cuda.memcpy_h2d_ints ctx ~dst:d_membership (Array.make n (-1));
  Cuda.memcpy_h2d_floats ctx ~dst:d_centers (Array.sub x 0 (k * f));
  let t1 = Cuda.now ctx in
  Mgacc_runtime.Profiler.charge profiler Mgacc_obs.Blame.Cpu_gpu ~label:"load" ~exposed:(t1 -. t0) ~hidden:0.0
    ~bytes:((n * f * 8) + (n * 4) + (k * f * 8)) ~spans:[];
  Mgacc_runtime.Profiler.incr_loops profiler;
  let newcenters = Array.make (k * f) 0.0 in
  let counts = Array.make k 0 in
  (* Persistent host mirror of the centers (device copy stays in sync). *)
  let centers = Array.sub x 0 (k * f) in
  for _it = 1 to p.iterations do
    let t_start = Cuda.now ctx in
    (* Assignment kernel. *)
    Cuda.launch ctx ~threads:n ~label:"kmeans-assign" (fun () ->
        let cost = Cost.zero () in
        let xd = Memory.float_data d_x in
        let md = Memory.int_data d_membership in
        let cd = Memory.float_data d_centers in
        for i = 0 to n - 1 do
          let best = ref 1.0e30 and bc = ref 0 in
          for c = 0 to k - 1 do
            let dist = ref 0.0 in
            for j = 0 to f - 1 do
              let d = xd.((j * n) + i) -. cd.((c * f) + j) in
              dist := !dist +. (d *. d)
            done;
            cost.Cost.coalesced_bytes <- cost.Cost.coalesced_bytes + (8 * f);
            cost.Cost.broadcast_bytes <- cost.Cost.broadcast_bytes + (8 * f);
            cost.Cost.flops <- cost.Cost.flops + (3 * f) + 1;
            if !dist < !best then begin
              best := !dist;
              bc := c
            end
          done;
          cost.Cost.int_ops <- cost.Cost.int_ops + (4 * k);
          cost.Cost.coalesced_bytes <- cost.Cost.coalesced_bytes + 8 (* membership r/w *);
          md.(i) <- !bc
        done;
        cost);
    (* Accumulation kernel: atomics into global sums. *)
    Cuda.launch ctx ~threads:n ~label:"kmeans-accum" (fun () ->
        let cost = Cost.zero () in
        let xd = Memory.float_data d_x in
        let md = Memory.int_data d_membership in
        Array.fill newcenters 0 (k * f) 0.0;
        Array.fill counts 0 k 0;
        for i = 0 to n - 1 do
          let c = md.(i) in
          counts.(c) <- counts.(c) + 1;
          for j = 0 to f - 1 do
            newcenters.((c * f) + j) <- newcenters.((c * f) + j) +. xd.((j * n) + i)
          done;
          cost.Cost.coalesced_bytes <- cost.Cost.coalesced_bytes + 4 + (8 * f);
          cost.Cost.flops <- cost.Cost.flops + f;
          (* Hierarchical shared-memory reduction: roughly one extra
             combine per element. *)
          cost.Cost.random_accesses <- cost.Cost.random_accesses + 1 + f;
          cost.Cost.random_bytes <- cost.Cost.random_bytes + 4 + (8 * f)
        done;
        cost);
    let t_kernels_done = Cuda.now ctx in
    Mgacc_runtime.Profiler.charge profiler Mgacc_obs.Blame.Kernel ~label:"kmeans-kernels" ~exposed:(t_kernels_done -. t_start) ~hidden:0.0 ~bytes:0
      ~spans:[];
    Mgacc_runtime.Profiler.incr_kernel_launches profiler;
    Mgacc_runtime.Profiler.incr_kernel_launches profiler;
    (* Host pulls the sums, recomputes centers, pushes them back. The sums
       and counts conceptually live on the device; account their D2H. *)
    Cuda.charge_d2h ctx ~bytes:((k * f * 8) + (k * 4)) ~label:"kmeans-sums";
    for c = 0 to k - 1 do
      if counts.(c) > 0 then
        for j = 0 to f - 1 do
          centers.((c * f) + j) <- newcenters.((c * f) + j) /. float_of_int counts.(c)
        done
    done;
    Cuda.memcpy_h2d_floats ctx ~dst:d_centers centers;
    let t_update_done = Cuda.now ctx in
    Mgacc_runtime.Profiler.charge profiler Mgacc_obs.Blame.Cpu_gpu ~label:"kmeans-update"
      ~exposed:(t_update_done -. t_kernels_done) ~hidden:0.0
      ~bytes:((k * f * 8) + (k * 4) + (k * f * 8))
      ~spans:[]
  done;
  let membership = Array.make n 0 in
  let td = Cuda.now ctx in
  Cuda.memcpy_d2h_ints ctx ~src:d_membership membership;
  let te = Cuda.now ctx in
  Mgacc_runtime.Profiler.charge profiler Mgacc_obs.Blame.Cpu_gpu ~label:"copyout" ~exposed:(te -. td) ~hidden:0.0
    ~bytes:(n * 4) ~spans:[];
  Mgacc_runtime.Profiler.record_memory_peaks profiler machine ~num_gpus:1;
  ( centers,
    membership,
    Mgacc_runtime.Report.of_profiler profiler ~machine:machine.Machine.name ~variant:"cuda(1)"
      ~num_gpus:1 )
