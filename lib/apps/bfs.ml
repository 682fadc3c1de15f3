open Mgacc

type params = { nodes : int; max_degree : int; seed : int }

let default_params = { nodes = 50000; max_degree = 16; seed = 5 }
let paper_params = { nodes = 1000000; max_degree = 112; seed = 5 }

let source p =
  Printf.sprintf
    {|
void main() {
  int n = %d;
  int maxdeg = %d;
  int seed = %d;
  int edges[n*maxdeg];
  int degree[n];
  int levels[n];
  int i;
  int e;
  for (i = 0; i < n; i++) {
    %s
    int deg = 1 + seed %% maxdeg;
    degree[i] = deg;
    for (e = 0; e < deg; e++) {
      if (e == 0) {
        edges[i*maxdeg] = (i + 1) %% n;
      } else {
        %s
        int j;
        if (seed %% 10 < 8) { j = (i + 1 + seed %% 2000) %% n; } else { j = seed %% n; }
        edges[i*maxdeg + e] = j;
      }
    }
    for (e = deg; e < maxdeg; e++) { edges[i*maxdeg + e] = 0 - 1; }
  }
  for (i = 0; i < n; i++) { levels[i] = 0 - 1; }
  levels[0] = 0;
  int level = 0;
  int changed = 1;
  #pragma acc data copyin(edges[0:n*maxdeg], degree[0:n]) copy(levels[0:n])
  {
    while (changed > 0) {
      changed = 0;
      #pragma acc parallel loop reduction(+: changed) localaccess(edges: stride(maxdeg), degree: stride(1))
      for (i = 0; i < n; i++) {
        if (levels[i] == level) {
          int deg = degree[i];
          int e2;
          for (e2 = 0; e2 < deg; e2++) {
            int j = edges[i*maxdeg + e2];
            if (levels[j] == 0 - 1) {
              levels[j] = level + 1;
              changed = changed + 1;
            }
          }
        }
      }
      level = level + 1;
    }
  }
}
|}
    p.nodes p.max_degree p.seed Workloads.lcg_c_snippet Workloads.lcg_c_snippet

let app p =
  { App_common.name = "bfs"; source = source p; result_arrays = [ "levels" ] }

(* ------------------------------------------------------------------ *)
(* Hand-written CUDA baseline (single GPU).                            *)
(* ------------------------------------------------------------------ *)

let run_cuda ~machine p =
  let n = p.nodes and maxdeg = p.max_degree in
  let edges, degree = Workloads.bfs_graph ~seed:p.seed ~nodes:n ~max_degree:maxdeg in
  let ctx = Cuda.init machine in
  let profiler = Mgacc_runtime.Profiler.create () in
  let d_edges = Cuda.malloc_ints ctx (n * maxdeg) in
  let d_degree = Cuda.malloc_ints ctx n in
  let d_levels = Cuda.malloc_ints ctx n in
  let levels0 = Array.make n (-1) in
  levels0.(0) <- 0;
  let t0 = Cuda.now ctx in
  Cuda.memcpy_h2d_ints ctx ~dst:d_edges edges;
  Cuda.memcpy_h2d_ints ctx ~dst:d_degree degree;
  Cuda.memcpy_h2d_ints ctx ~dst:d_levels levels0;
  let t1 = Cuda.now ctx in
  Mgacc_runtime.Profiler.charge profiler Mgacc_obs.Blame.Cpu_gpu ~label:"load" ~exposed:(t1 -. t0) ~hidden:0.0
    ~bytes:(4 * ((n * maxdeg) + n + n));
  Mgacc_runtime.Profiler.incr_loops profiler;
  let level = ref 0 in
  let changed = ref 1 in
  while !changed > 0 do
    changed := 0;
    let t_start = Cuda.now ctx in
    Cuda.launch ctx ~threads:n ~label:"bfs-sweep" (fun () ->
        let cost = Cost.zero () in
        let ed = Memory.int_data d_edges in
        let dd = Memory.int_data d_degree in
        let ld = Memory.int_data d_levels in
        for i = 0 to n - 1 do
          cost.Cost.coalesced_bytes <- cost.Cost.coalesced_bytes + 4 (* levels[i] *);
          cost.Cost.int_ops <- cost.Cost.int_ops + 2;
          if ld.(i) = !level then begin
            let deg = dd.(i) in
            cost.Cost.coalesced_bytes <- cost.Cost.coalesced_bytes + 4;
            for e = 0 to deg - 1 do
              let j = ed.((i * maxdeg) + e) in
              (* Padded adjacency reads coalesce thread-wise in the expert
                 version (edge list transposed). *)
              cost.Cost.coalesced_bytes <- cost.Cost.coalesced_bytes + 4;
              cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
              cost.Cost.random_bytes <- cost.Cost.random_bytes + 4;
              cost.Cost.int_ops <- cost.Cost.int_ops + 4;
              if ld.(j) = -1 then begin
                ld.(j) <- !level + 1;
                changed := !changed + 1;
                cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
                cost.Cost.random_bytes <- cost.Cost.random_bytes + 4
              end
            done
          end
        done;
        cost);
    let t_end = Cuda.now ctx in
    Mgacc_runtime.Profiler.charge profiler Mgacc_obs.Blame.Kernel ~label:"bfs-sweep" ~exposed:(t_end -. t_start) ~hidden:0.0 ~bytes:0;
    Mgacc_runtime.Profiler.incr_kernel_launches profiler;
    (* The continue flag travels back each sweep. *)
    Cuda.charge_d2h ctx ~bytes:4 ~label:"bfs-flag";
    let t_flag = Cuda.now ctx in
    Mgacc_runtime.Profiler.charge profiler Mgacc_obs.Blame.Cpu_gpu ~label:"bfs-flag" ~exposed:(t_flag -. t_end) ~hidden:0.0
      ~bytes:4;
    incr level
  done;
  let levels = Array.make n 0 in
  let td = Cuda.now ctx in
  Cuda.memcpy_d2h_ints ctx ~src:d_levels levels;
  let te = Cuda.now ctx in
  Mgacc_runtime.Profiler.charge profiler Mgacc_obs.Blame.Cpu_gpu ~label:"copyout" ~exposed:(te -. td) ~hidden:0.0
    ~bytes:(4 * n);
  Mgacc_runtime.Profiler.record_memory_peaks profiler machine ~num_gpus:1;
  (levels, Mgacc_runtime.Report.of_profiler profiler ~machine:machine.Machine.name
     ~variant:"cuda(1)" ~num_gpus:1)
