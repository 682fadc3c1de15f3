(* Fraction of random accesses assumed to miss in the last-level cache. *)
let random_miss_ratio = 0.5
let hyperthread_boost = 1.2

let effective_parallelism (c : Spec.cpu) ~threads =
  let cores = Spec.cpu_total_cores c in
  let hw_threads = Spec.cpu_total_threads c in
  let threads = max 1 (min threads hw_threads) in
  if threads <= cores then float_of_int threads
  else
    (* Hyper-threads add a little throughput on top of the full cores. *)
    let extra = float_of_int (threads - cores) /. float_of_int cores in
    float_of_int cores *. (1.0 +. ((hyperthread_boost -. 1.0) *. extra))

let time_with_parallelism (c : Spec.cpu) ~parallelism (cost : Cost.t) =
  let frac = parallelism /. float_of_int (Spec.cpu_total_cores c) in
  let dp = c.cpu_dp_gflops *. 1e9 *. c.cpu_compute_efficiency *. frac in
  (* Integer ops: ~2 ALU ops per core per cycle. *)
  let int_throughput = parallelism *. c.cpu_clock_ghz *. 1e9 *. 2.0 *. c.cpu_compute_efficiency in
  let compute =
    (float_of_int cost.Cost.flops /. dp) +. (float_of_int cost.Cost.int_ops /. int_throughput)
  in
  (* Memory bandwidth is a node resource: scales only up to saturation. *)
  let bw = c.cpu_mem_bandwidth *. Float.min 1.0 (parallelism /. 4.0) in
  let effective_bytes =
    float_of_int cost.Cost.coalesced_bytes
    (* Broadcast data stays resident in cache; charge L1-ish bandwidth. *)
    +. (float_of_int cost.Cost.broadcast_bytes /. 16.0)
    +. (float_of_int (cost.Cost.random_accesses * c.cacheline_bytes) *. random_miss_ratio)
    +. (float_of_int cost.Cost.random_bytes *. (1.0 -. random_miss_ratio))
  in
  let memory = effective_bytes /. bw in
  Float.max compute memory

let duration c ~threads cost =
  let parallelism = effective_parallelism c ~threads *. c.Spec.parallel_efficiency in
  time_with_parallelism c ~parallelism cost
