module Metrics = Mgacc_obs.Metrics
module Blame = Mgacc_obs.Blame

type memory_report = { user_bytes : int; system_bytes : int }

type coh_cell = { mutable shipped : int; mutable deferred : int; mutable pulled : int }

(* All scalar counters live in the metrics registry; integer counts are
   stored as float counters (exact below 2^53, far above anything the
   simulator produces) and converted back at the getters. The float
   accumulation order of the time categories is unchanged from the
   pre-registry profiler, so reports stay bit-identical. *)
type t = {
  metrics : Metrics.t;
  ledger : Blame.t;
  coh : (string, coh_cell) Hashtbl.t;
  c_cpu_gpu : Metrics.counter;
  c_gpu_gpu : Metrics.counter;
  c_kernel : Metrics.counter;
  c_overhead : Metrics.counter;
  c_hidden : Metrics.counter;
  c_cpu_gpu_bytes : Metrics.counter;
  c_gpu_gpu_bytes : Metrics.counter;
  c_wire_bytes : Metrics.counter;
  c_coll_rings : Metrics.counter;
  c_coll_hierarchies : Metrics.counter;
  c_coll_direct_groups : Metrics.counter;
  c_coll_segments : Metrics.counter;
  c_launches : Metrics.counter;
  c_loops : Metrics.counter;
  c_rebalances : Metrics.counter;
  c_imbalance_sum : Metrics.counter;
  c_imbalance_samples : Metrics.counter;
  h_imbalance : Metrics.histogram;
  c_prefetch_hits : Metrics.counter;
  c_fused_kernels : Metrics.counter;
  c_contracted_arrays : Metrics.counter;
  c_relayouts : Metrics.counter;
  c_spilled_bytes : Metrics.counter;
  c_spills : Metrics.counter;
  g_mem_user : Metrics.gauge;
  g_mem_system : Metrics.gauge;
  mutable mem : memory_report;
}

let create () =
  let m = Metrics.create () in
  {
    metrics = m;
    ledger = Blame.create ();
    coh = Hashtbl.create 8;
    c_cpu_gpu =
      Metrics.counter m ~help:"exposed host<->device transfer seconds" "rt_cpu_gpu_seconds_total";
    c_gpu_gpu =
      Metrics.counter m ~help:"exposed inter-GPU reconciliation seconds" "rt_gpu_gpu_seconds_total";
    c_kernel = Metrics.counter m ~help:"exposed kernel seconds" "rt_kernel_seconds_total";
    c_overhead = Metrics.counter m ~help:"runtime bookkeeping seconds" "rt_overhead_seconds_total";
    c_hidden =
      Metrics.counter m ~help:"seconds hidden behind the critical path (overlap engine)"
        "rt_hidden_seconds_total";
    c_cpu_gpu_bytes = Metrics.counter m ~help:"host<->device bytes" "rt_cpu_gpu_bytes_total";
    c_gpu_gpu_bytes = Metrics.counter m ~help:"inter-GPU bytes" "rt_gpu_gpu_bytes_total";
    c_wire_bytes = Metrics.counter m ~help:"bytes across the inter-node wire" "rt_wire_bytes_total";
    c_coll_rings = Metrics.counter m "rt_collective_rings_total";
    c_coll_hierarchies = Metrics.counter m "rt_collective_hierarchies_total";
    c_coll_direct_groups = Metrics.counter m "rt_collective_direct_groups_total";
    c_coll_segments = Metrics.counter m "rt_collective_segments_total";
    c_launches = Metrics.counter m ~help:"multi-GPU kernel launches" "rt_kernel_launches_total";
    c_loops = Metrics.counter m ~help:"parallel loops executed" "rt_loops_total";
    c_rebalances = Metrics.counter m ~help:"committed scheduler re-splits" "rt_rebalances_total";
    c_imbalance_sum = Metrics.counter m "rt_imbalance_ratio_sum_total";
    c_imbalance_samples = Metrics.counter m "rt_imbalance_samples_total";
    h_imbalance =
      Metrics.histogram m ~help:"per-launch kernel-time imbalance ratio"
        ~buckets:[| 0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1.0 |]
        "rt_imbalance_ratio";
    c_prefetch_hits = Metrics.counter m "rt_prefetch_hits_total";
    c_fused_kernels =
      Metrics.counter m ~help:"kernel launches saved by loop fusion" "rt_fused_kernels_total";
    c_contracted_arrays =
      Metrics.counter m ~help:"temporaries contracted to scalars by fusion"
        "rt_contracted_arrays_total";
    c_relayouts =
      Metrics.counter m ~help:"one-time layout repacks materialized" "rt_relayouts_total";
    c_spilled_bytes =
      Metrics.counter m ~help:"dirty bytes written back on fleet evictions" "rt_spilled_bytes_total";
    c_spills = Metrics.counter m ~help:"fleet evictions of this session" "rt_spills_total";
    g_mem_user = Metrics.gauge m ~help:"peak user device bytes" "rt_mem_user_bytes";
    g_mem_system = Metrics.gauge m ~help:"peak system device bytes" "rt_mem_system_bytes";
    mem = { user_bytes = 0; system_bytes = 0 };
  }

let metrics t = t.metrics
let int_count c = int_of_float (Metrics.counter_value c)

let ledger t = t.ledger

(* The one writer of the time categories, the hidden and byte counters
   and the blame ledger, so the ledger's category sums equal the
   profiler's by construction. *)
let charge t cat ~label ~exposed ~hidden ~bytes ~spans =
  (match cat with
  | Blame.Kernel -> Metrics.inc t.c_kernel exposed
  | Blame.Overhead -> Metrics.inc t.c_overhead exposed
  | Blame.Cpu_gpu ->
      Metrics.inc t.c_cpu_gpu exposed;
      Metrics.inc t.c_cpu_gpu_bytes (float_of_int bytes)
  | Blame.Gpu_gpu ->
      Metrics.inc t.c_gpu_gpu exposed;
      Metrics.inc t.c_gpu_gpu_bytes (float_of_int bytes));
  if hidden > 0.0 then Metrics.inc t.c_hidden hidden;
  Blame.charge t.ledger cat ~label ~exposed ~hidden ~spans

let add_wire_bytes t ~bytes = Metrics.inc t.c_wire_bytes (float_of_int bytes)

let add_collective t ~rings ~hierarchies ~direct_groups ~segments =
  Metrics.inc t.c_coll_rings (float_of_int rings);
  Metrics.inc t.c_coll_hierarchies (float_of_int hierarchies);
  Metrics.inc t.c_coll_direct_groups (float_of_int direct_groups);
  Metrics.inc t.c_coll_segments (float_of_int segments)

let incr_kernel_launches t = Metrics.inc t.c_launches 1.
let incr_loops t = Metrics.inc t.c_loops 1.
let incr_rebalances t = Metrics.inc t.c_rebalances 1.

let add_imbalance t ~ratio =
  Metrics.inc t.c_imbalance_sum ratio;
  Metrics.inc t.c_imbalance_samples 1.;
  Metrics.observe t.h_imbalance ratio

let add_prefetch_hits t ~count = Metrics.inc t.c_prefetch_hits (float_of_int count)
let add_fused_kernels t ~count = Metrics.inc t.c_fused_kernels (float_of_int count)
let add_contracted_arrays t ~count = Metrics.inc t.c_contracted_arrays (float_of_int count)
let add_relayout t = Metrics.inc t.c_relayouts 1.

(* Fleet memory pressure: one eviction of this session's warm data,
   writing [bytes] of dirty device data back to the host (0 when the
   evicted arrays were clean — writeback semantics). *)
let add_spill t ~bytes =
  Metrics.inc t.c_spills 1.;
  Metrics.inc t.c_spilled_bytes (float_of_int bytes)

let coh_cell t array =
  match Hashtbl.find_opt t.coh array with
  | Some c -> c
  | None ->
      let c = { shipped = 0; deferred = 0; pulled = 0 } in
      Hashtbl.replace t.coh array c;
      c

let add_coh t ~array ~shipped ~deferred =
  if shipped <> 0 || deferred <> 0 then begin
    let c = coh_cell t array in
    c.shipped <- c.shipped + shipped;
    c.deferred <- c.deferred + deferred
  end

let add_coh_pulled t ~array ~bytes =
  if bytes <> 0 then begin
    let c = coh_cell t array in
    c.pulled <- c.pulled + bytes
  end

let coh_rows t =
  Hashtbl.fold (fun array c acc -> (array, c.shipped, c.deferred, c.pulled) :: acc) t.coh []
  |> List.sort compare

let cpu_gpu_time t = Metrics.counter_value t.c_cpu_gpu
let gpu_gpu_time t = Metrics.counter_value t.c_gpu_gpu
let kernel_time t = Metrics.counter_value t.c_kernel
let overhead_time t = Metrics.counter_value t.c_overhead
let total_time t = cpu_gpu_time t +. gpu_gpu_time t +. kernel_time t +. overhead_time t
let cpu_gpu_bytes t = int_count t.c_cpu_gpu_bytes
let gpu_gpu_bytes t = int_count t.c_gpu_gpu_bytes
let wire_bytes t = int_count t.c_wire_bytes
let collective_rings t = int_count t.c_coll_rings
let collective_hierarchies t = int_count t.c_coll_hierarchies
let collective_direct_groups t = int_count t.c_coll_direct_groups
let collective_segments t = int_count t.c_coll_segments
let kernel_launches t = int_count t.c_launches
let loops_executed t = int_count t.c_loops
let rebalances t = int_count t.c_rebalances
let hidden_time t = Metrics.counter_value t.c_hidden
let prefetch_hits t = int_count t.c_prefetch_hits
let fused_kernels t = int_count t.c_fused_kernels
let contracted_arrays t = int_count t.c_contracted_arrays
let relayouts t = int_count t.c_relayouts
let spilled_bytes t = int_count t.c_spilled_bytes
let spills t = int_count t.c_spills

let mean_imbalance t =
  let samples = Metrics.counter_value t.c_imbalance_samples in
  if samples = 0. then 0.0 else Metrics.counter_value t.c_imbalance_sum /. samples

let record_memory_peaks t machine ~num_gpus =
  let user = ref 0 and system = ref 0 in
  for g = 0 to num_gpus - 1 do
    let mem = (Mgacc_gpusim.Machine.device machine g).Mgacc_gpusim.Device.memory in
    user := !user + Mgacc_gpusim.Memory.peak_class mem `User;
    system := !system + Mgacc_gpusim.Memory.peak_class mem `System
  done;
  t.mem <- { user_bytes = max t.mem.user_bytes !user; system_bytes = max t.mem.system_bytes !system };
  Metrics.set t.g_mem_user (float_of_int t.mem.user_bytes);
  Metrics.set t.g_mem_system (float_of_int t.mem.system_bytes)

let memory t = t.mem

let pp ppf t =
  Format.fprintf ppf
    "time: total=%.6fs kernels=%.6fs cpu-gpu=%.6fs gpu-gpu=%.6fs overhead=%.6fs hidden=%.6fs; \
     bytes: h<->d=%s p2p=%s; launches=%d loops=%d; mem user=%s system=%s"
    (total_time t) (kernel_time t) (cpu_gpu_time t) (gpu_gpu_time t) (overhead_time t)
    (hidden_time t)
    (Mgacc_util.Bytesize.to_string (cpu_gpu_bytes t))
    (Mgacc_util.Bytesize.to_string (gpu_gpu_bytes t))
    (kernel_launches t) (loops_executed t)
    (Mgacc_util.Bytesize.to_string t.mem.user_bytes)
    (Mgacc_util.Bytesize.to_string t.mem.system_bytes)
