open Mgacc

type params = { atoms : int; max_neighbors : int; seed : int }

let default_params = { atoms = 8192; max_neighbors = 32; seed = 42 }
let paper_params = { atoms = 73728; max_neighbors = 128; seed = 42 }

let source p =
  Printf.sprintf
    {|
void main() {
  int n = %d;
  int maxn = %d;
  int seed = %d;
  double pos[3*n];
  int nl[n*maxn];
  double force[3*n];
  int i;
  int k;
  for (i = 0; i < 3*n; i++) {
    %s
    pos[i] = 100.0 * seed / 2147483648.0;
  }
  for (i = 0; i < n; i++) {
    for (k = 0; k < maxn; k++) {
      %s
      int r = seed %% 4;
      %s
      int j;
      if (r == 0) { j = seed %% n; } else { j = (i + 1 + seed %% 64) %% n; }
      nl[i*maxn + k] = j;
    }
  }
  double cutoff2 = 16.0;
  double lj1 = 1.5;
  #pragma acc data copyin(pos[0:3*n], nl[0:n*maxn]) copyout(force[0:3*n])
  {
    #pragma acc parallel loop localaccess(nl: stride(maxn), force: stride(3))
    for (i = 0; i < n; i++) {
      double px = pos[3*i];
      double py = pos[3*i + 1];
      double pz = pos[3*i + 2];
      double fx = 0.0;
      double fy = 0.0;
      double fz = 0.0;
      int k2;
      for (k2 = 0; k2 < maxn; k2++) {
        int j = nl[i*maxn + k2];
        double dx = px - pos[3*j];
        double dy = py - pos[3*j + 1];
        double dz = pz - pos[3*j + 2];
        double r2 = dx*dx + dy*dy + dz*dz;
        if (r2 < cutoff2 && r2 > 0.000001) {
          double r2inv = 1.0 / r2;
          double r6inv = r2inv * r2inv * r2inv;
          double fc = r6inv * (r6inv - 0.5) * r2inv * lj1;
          fx = fx + dx * fc;
          fy = fy + dy * fc;
          fz = fz + dz * fc;
        }
      }
      force[3*i] = fx;
      force[3*i + 1] = fy;
      force[3*i + 2] = fz;
    }
  }
}
|}
    p.atoms p.max_neighbors p.seed Workloads.lcg_c_snippet Workloads.lcg_c_snippet
    Workloads.lcg_c_snippet

let app p = { App_common.name = "md"; source = source p; result_arrays = [ "force" ] }

(* ------------------------------------------------------------------ *)
(* Hand-written CUDA baseline (single GPU).                            *)
(* ------------------------------------------------------------------ *)

let compute_forces_range ~(cost : Cost.t) ~pos ~nl ~force ~lo ~hi ~max_neighbors =
  let cutoff2 = 16.0 and lj1 = 1.5 in
  for i = lo to hi - 1 do
    (* SoA layout + transposed neighbor list: an expert CUDA programmer's
       accesses to pos[3i..] and the neighbor list coalesce. *)
    let px = pos.(3 * i) and py = pos.((3 * i) + 1) and pz = pos.((3 * i) + 2) in
    cost.Cost.coalesced_bytes <- cost.Cost.coalesced_bytes + 24;
    let fx = ref 0.0 and fy = ref 0.0 and fz = ref 0.0 in
    for k = 0 to max_neighbors - 1 do
      let j = nl.((i * max_neighbors) + k) in
      cost.Cost.coalesced_bytes <- cost.Cost.coalesced_bytes + 4;
      let dx = px -. pos.(3 * j) in
      let dy = py -. pos.((3 * j) + 1) in
      let dz = pz -. pos.((3 * j) + 2) in
      cost.Cost.random_accesses <- cost.Cost.random_accesses + 3;
      cost.Cost.random_bytes <- cost.Cost.random_bytes + 24;
      let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
      (* 3 subs + 5 mul/add for r2 + compare. *)
      cost.Cost.flops <- cost.Cost.flops + 9;
      cost.Cost.int_ops <- cost.Cost.int_ops + 4 (* index math *);
      if r2 < cutoff2 && r2 > 1e-6 then begin
        let r2inv = 1.0 /. r2 in
        let r6inv = r2inv *. r2inv *. r2inv in
        let fc = r6inv *. (r6inv -. 0.5) *. r2inv *. lj1 in
        fx := !fx +. (dx *. fc);
        fy := !fy +. (dy *. fc);
        fz := !fz +. (dz *. fc);
        cost.Cost.flops <- cost.Cost.flops + 14
      end
    done;
    force.(3 * i) <- !fx;
    force.((3 * i) + 1) <- !fy;
    force.((3 * i) + 2) <- !fz;
    cost.Cost.coalesced_bytes <- cost.Cost.coalesced_bytes + 24
  done

(* The mini-C source draws position values and then neighbor values from
   one LCG stream; reproduce that exact order. *)
let inputs p =
  let pos = Workloads.md_positions ~seed:p.seed ~atoms:p.atoms in
  let nl_seed =
    (* Position generation consumed 3*atoms draws; continue the stream. *)
    let s = ref p.seed in
    for _ = 1 to 3 * p.atoms do
      s := Workloads.lcg_next !s
    done;
    !s
  in
  let nl = Workloads.md_neighbors ~seed:nl_seed ~atoms:p.atoms ~max_neighbors:p.max_neighbors in
  (pos, nl)

let compute_forces ~cost ~pos ~nl ~force ~atoms ~max_neighbors =
  compute_forces_range ~cost ~pos ~nl ~force ~lo:0 ~hi:atoms ~max_neighbors

let run_cuda_multi ~machine ~gpus p =
  if gpus < 1 || gpus > Machine.num_gpus machine then invalid_arg "Md.run_cuda_multi";
  let pos, nl = inputs p in
  let n = p.atoms and maxn = p.max_neighbors in
  let profiler = Mgacc_runtime.Profiler.create () in
  let blocks =
    Array.init gpus (fun g ->
        let lo = g * n / gpus and hi = (g + 1) * n / gpus in
        (lo, hi))
  in
  (* Allocate per GPU: full positions (gathers are unstructured), the
     block's neighbor rows and force rows. *)
  let mem g = (Machine.device machine g).Mgacc_gpusim.Device.memory in
  let d_pos = Array.init gpus (fun g -> Memory.alloc_float (mem g) `User (3 * n)) in
  let d_nl =
    Array.init gpus (fun g ->
        let lo, hi = blocks.(g) in
        Memory.alloc_int (mem g) `User ((hi - lo) * maxn))
  in
  let d_force =
    Array.init gpus (fun g ->
        let lo, hi = blocks.(g) in
        Memory.alloc_float (mem g) `User (3 * (hi - lo)))
  in
  (* Concurrent loads on all links (the expert uses async copies). *)
  let b = Fabric.batch () in
  for g = 0 to gpus - 1 do
    let lo, hi = blocks.(g) in
    Fabric.push b (Fabric.H2d g) ~bytes:(3 * n * 8) ~ready:0.0 ~tag:"pos";
    Fabric.push b (Fabric.H2d g) ~bytes:((hi - lo) * maxn * 4) ~ready:0.0 ~tag:"nl"
  done;
  Machine.run_transfers_spans machine ~label:"md-multi-load" b;
  (* The latest finish in the batch, from [from]. *)
  let last_finish from =
    let t = ref from in
    for i = 0 to b.len - 1 do
      t := Float.max !t (Float.Array.get b.finish i)
    done;
    !t
  in
  let t_loaded = last_finish 0.0 in
  (* Every GPU loads all positions and its blocks' rows; the blocks
     partition the atoms. *)
  Mgacc_runtime.Profiler.charge profiler Mgacc_obs.Blame.Cpu_gpu ~label:"load" ~exposed:t_loaded ~hidden:0.0
    ~bytes:((gpus * 3 * n * 8) + (n * maxn * 4));
  Mgacc_runtime.Profiler.incr_loops profiler;
  (* Functional data movement + per-GPU kernels. *)
  let force = Array.make (3 * n) 0.0 in
  let t_kernels =
    Array.to_list
      (Array.init gpus (fun g ->
           let lo, hi = blocks.(g) in
           Array.blit pos 0 (Memory.float_data d_pos.(g)) 0 (3 * n);
           Array.blit nl (lo * maxn) (Memory.int_data d_nl.(g)) 0 ((hi - lo) * maxn);
           let cost = Cost.zero () in
           (* Compute the block into a window of the global force array,
              then copy into the device block buffer. *)
           let local = Array.make (3 * n) 0.0 in
           compute_forces_range ~cost ~pos ~nl ~force:local ~lo ~hi ~max_neighbors:maxn;
           Array.blit local (3 * lo) (Memory.float_data d_force.(g)) 0 (3 * (hi - lo));
           Array.blit local (3 * lo) force (3 * lo) (3 * (hi - lo));
           Mgacc_runtime.Profiler.incr_kernel_launches profiler;
           let _, finish, _ =
             Machine.launch_kernel_span machine ~dev:g ~ready:t_loaded ~threads:(hi - lo)
               ~label:"md-multi" cost
           in
           finish))
  in
  let t_done = List.fold_left Float.max t_loaded t_kernels in
  Mgacc_runtime.Profiler.charge profiler Mgacc_obs.Blame.Kernel ~label:"md-multi" ~exposed:(t_done -. t_loaded) ~hidden:0.0 ~bytes:0;
  (* Gather force blocks concurrently. *)
  Fabric.clear b;
  for g = 0 to gpus - 1 do
    let lo, hi = blocks.(g) in
    Fabric.push b (Fabric.D2h g) ~bytes:(3 * (hi - lo) * 8) ~ready:t_done ~tag:"force"
  done;
  Machine.run_transfers_spans machine ~label:"md-multi-out" b;
  let t_out = last_finish t_done in
  Mgacc_runtime.Profiler.charge profiler Mgacc_obs.Blame.Cpu_gpu ~label:"copyout" ~exposed:(t_out -. t_done) ~hidden:0.0
    ~bytes:(3 * n * 8);
  Mgacc_runtime.Profiler.record_memory_peaks profiler machine ~num_gpus:gpus;
  Array.iteri (fun g buf -> Memory.free (mem g) buf) d_pos;
  Array.iteri (fun g buf -> Memory.free (mem g) buf) d_nl;
  Array.iteri (fun g buf -> Memory.free (mem g) buf) d_force;
  ( force,
    Mgacc_runtime.Report.of_profiler profiler ~machine:machine.Machine.name
      ~variant:(Printf.sprintf "cuda-multi(%d)" gpus)
      ~num_gpus:gpus )

let run_cuda ~machine p =
  let pos, nl = inputs p in
  let ctx = Cuda.init machine in
  let profiler = Mgacc_runtime.Profiler.create () in
  let d_pos = Cuda.malloc_floats ctx (3 * p.atoms) in
  let d_nl = Cuda.malloc_ints ctx (p.atoms * p.max_neighbors) in
  let d_force = Cuda.malloc_floats ctx (3 * p.atoms) in
  let t0 = Cuda.now ctx in
  Cuda.memcpy_h2d_floats ctx ~dst:d_pos pos;
  Cuda.memcpy_h2d_ints ctx ~dst:d_nl nl;
  let t1 = Cuda.now ctx in
  Mgacc_runtime.Profiler.charge profiler Mgacc_obs.Blame.Cpu_gpu ~label:"load" ~exposed:(t1 -. t0) ~hidden:0.0
    ~bytes:((3 * p.atoms * 8) + (p.atoms * p.max_neighbors * 4));
  Cuda.launch ctx ~threads:p.atoms ~label:"md-forces" (fun () ->
      let cost = Cost.zero () in
      compute_forces ~cost ~pos:(Memory.float_data d_pos) ~nl:(Memory.int_data d_nl)
        ~force:(Memory.float_data d_force) ~atoms:p.atoms ~max_neighbors:p.max_neighbors;
      cost);
  let t2 = Cuda.now ctx in
  Mgacc_runtime.Profiler.charge profiler Mgacc_obs.Blame.Kernel ~label:"md-forces" ~exposed:(t2 -. t1) ~hidden:0.0 ~bytes:0;
  Mgacc_runtime.Profiler.incr_kernel_launches profiler;
  Mgacc_runtime.Profiler.incr_loops profiler;
  let force = Array.make (3 * p.atoms) 0.0 in
  Cuda.memcpy_d2h_floats ctx ~src:d_force force;
  let t3 = Cuda.now ctx in
  Mgacc_runtime.Profiler.charge profiler Mgacc_obs.Blame.Cpu_gpu ~label:"copyout" ~exposed:(t3 -. t2) ~hidden:0.0
    ~bytes:(3 * p.atoms * 8);
  Mgacc_runtime.Profiler.record_memory_peaks profiler machine ~num_gpus:1;
  Cuda.free ctx d_pos;
  Cuda.free ctx d_nl;
  Cuda.free ctx d_force;
  ( force,
    Mgacc_runtime.Report.of_profiler profiler ~machine:machine.Machine.name ~variant:"cuda(1)"
      ~num_gpus:1 )
