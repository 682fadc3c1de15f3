let latency_hiding_factor = 8.0

let occupancy (g : Spec.gpu) ~threads =
  if threads <= 0 then 1.0
  else
    let full = float_of_int g.cores *. latency_hiding_factor in
    Float.min 1.0 (Float.max (float_of_int threads /. full) 1e-3)

(* Arithmetic pipeline time at full occupancy, seconds. *)
let compute_time (g : Spec.gpu) (c : Cost.t) =
  let dp_throughput = g.dp_gflops *. 1e9 *. g.compute_efficiency in
  (* One integer ALU op per core per cycle. *)
  let int_throughput = float_of_int g.cores *. g.clock_ghz *. 1e9 *. g.compute_efficiency in
  (float_of_int c.flops /. dp_throughput) +. (float_of_int c.int_ops /. int_throughput)

let warp_size = 32

let memory_time (g : Spec.gpu) (c : Cost.t) =
  let bw = g.mem_bandwidth *. g.bandwidth_efficiency in
  (* Broadcast reads: one transaction serves a whole warp. Gathers and
     scatters cost a full transaction on an L2 miss and only their payload
     on a hit. *)
  let random_bytes =
    (g.l2_hit_ratio *. float_of_int c.random_bytes)
    +. ((1.0 -. g.l2_hit_ratio) *. float_of_int (c.random_accesses * g.transaction_bytes))
  in
  let effective_bytes =
    float_of_int (c.coalesced_bytes + (c.broadcast_bytes / warp_size)) +. random_bytes
  in
  effective_bytes /. bw

let duration g ~threads c =
  let occ = occupancy g ~threads in
  let work = Float.max (compute_time g c) (memory_time g c) /. occ in
  g.kernel_launch_overhead +. work
