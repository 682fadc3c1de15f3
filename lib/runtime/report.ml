module Blame = Mgacc_obs.Blame

type t = {
  machine : string;
  variant : string;
  num_gpus : int;
  total_time : float;
  kernel_time : float;
  cpu_gpu_time : float;
  gpu_gpu_time : float;
  overhead_time : float;
  cpu_gpu_bytes : int;
  gpu_gpu_bytes : int;
  wire_bytes : int;
  collective_rings : int;
  collective_hierarchies : int;
  collective_direct_groups : int;
  collective_segments : int;
  loops : int;
  launches : int;
  rebalances : int;
  mean_imbalance : float;
  hidden_seconds : float;
  prefetch_hits : int;
  fused_kernels : int;
  contracted_arrays : int;
  relayouts : int;
  mem_user_bytes : int;
  mem_system_bytes : int;
  coh_shipped_bytes : int;
  coh_deferred_bytes : int;
  coh_pulled_bytes : int;
  coh_arrays : (string * int * int * int) list;
  queue_seconds : float;
  spills : int;
  spilled_bytes : int;
  blame : Blame.summary option;
}

let of_profiler (p : Profiler.t) ~machine ~variant ~num_gpus =
  let totals = Blame.totals p.ledger in
  let exposed cat =
    let _, e, _ = List.find (fun (c, _, _) -> c = cat) totals.t_categories in
    e
  in
  let kernel_time = exposed Blame.Kernel and cpu_gpu_time = exposed Blame.Cpu_gpu in
  let gpu_gpu_time = exposed Blame.Gpu_gpu and overhead_time = exposed Blame.Overhead in
  let coh_arrays = Profiler.coh_rows p in
  let sum f = List.fold_left (fun acc row -> acc + f row) 0 coh_arrays in
  {
    machine;
    variant;
    num_gpus;
    total_time = cpu_gpu_time +. gpu_gpu_time +. kernel_time +. overhead_time;
    kernel_time;
    cpu_gpu_time;
    gpu_gpu_time;
    overhead_time;
    cpu_gpu_bytes = p.cpu_gpu_bytes;
    gpu_gpu_bytes = p.gpu_gpu_bytes;
    wire_bytes = p.wire_bytes;
    collective_rings = p.collective_rings;
    collective_hierarchies = p.collective_hierarchies;
    collective_direct_groups = p.collective_direct_groups;
    collective_segments = p.collective_segments;
    loops = p.loops;
    launches = p.kernel_launches;
    rebalances = p.rebalances;
    mean_imbalance =
      (if p.imbalance_samples = 0 then 0.0
       else p.imbalance_sum /. float_of_int p.imbalance_samples);
    hidden_seconds = totals.t_hidden;
    prefetch_hits = p.prefetch_hits;
    fused_kernels = p.fused_kernels;
    contracted_arrays = p.contracted_arrays;
    relayouts = p.relayouts;
    mem_user_bytes = p.mem.user_bytes;
    mem_system_bytes = p.mem.system_bytes;
    coh_shipped_bytes = sum (fun (_, s, _, _) -> s);
    coh_deferred_bytes = sum (fun (_, _, d, _) -> d);
    coh_pulled_bytes = sum (fun (_, _, _, p) -> p);
    coh_arrays;
    queue_seconds = 0.0;
    spills = p.spills;
    spilled_bytes = p.spilled_bytes;
    blame = None;
  }

let with_queue t ~seconds = { t with queue_seconds = Float.max 0.0 seconds }
let with_blame t blame = { t with blame = Some blame }
let speedup_vs t ~baseline = baseline.total_time /. t.total_time
let coh_elided_bytes t = max 0 (t.coh_deferred_bytes - t.coh_pulled_bytes)

let metrics =
  let count f t = float_of_int (f t) in
  [
    ("seconds", fun t -> t.total_time);
    ("gpu_gpu_seconds", fun t -> t.gpu_gpu_time);
    ("hidden_seconds", fun t -> t.hidden_seconds);
    ("gpu_gpu_bytes", count (fun t -> t.gpu_gpu_bytes));
    ("wire_bytes", count (fun t -> t.wire_bytes));
    ("prefetch_hits", count (fun t -> t.prefetch_hits));
    ("coh_shipped_bytes", count (fun t -> t.coh_shipped_bytes));
    ("coh_deferred_bytes", count (fun t -> t.coh_deferred_bytes));
    ("coh_pulled_bytes", count (fun t -> t.coh_pulled_bytes));
    ("coh_elided_bytes", count coh_elided_bytes);
    ("rings", count (fun t -> t.collective_rings));
    ("hierarchies", count (fun t -> t.collective_hierarchies));
    ("segments", count (fun t -> t.collective_segments));
    ("fused_kernels", count (fun t -> t.fused_kernels));
    ("contracted_arrays", count (fun t -> t.contracted_arrays));
    ("relayouts", count (fun t -> t.relayouts));
  ]

let to_json t =
  (* The "blame" sub-object is appended only when present, so default
     reports stay byte-identical with or without observability. *)
  let blame_json =
    match t.blame with
    | None -> ""
    | Some b -> Printf.sprintf {|,"blame":%s|} (Blame.to_json b)
  in
  (* Likewise the "fusion" sub-object appears only when the pass actually
     did something, so fuse-off reports stay byte-identical. *)
  let fusion_json =
    if t.fused_kernels = 0 && t.contracted_arrays = 0 && t.relayouts = 0 then ""
    else
      Printf.sprintf {|,"fusion":{"fused_kernels":%d,"contracted_arrays":%d,"relayouts":%d}|}
        t.fused_kernels t.contracted_arrays t.relayouts
  in
  let coh_arrays =
    String.concat ","
      (List.map
         (fun (name, shipped, deferred, pulled) ->
           Printf.sprintf {|{"name":"%s","shipped_bytes":%d,"deferred_bytes":%d,"pulled_bytes":%d}|}
             (Mgacc_util.Json.escape name) shipped deferred pulled)
         t.coh_arrays)
  in
  Printf.sprintf
    {|{"machine":"%s","variant":"%s","num_gpus":%d,"total_time":%.9g,"kernel_time":%.9g,"cpu_gpu_time":%.9g,"gpu_gpu_time":%.9g,"overhead_time":%.9g,"cpu_gpu_bytes":%d,"gpu_gpu_bytes":%d,"wire_bytes":%d,"loops":%d,"launches":%d,"rebalances":%d,"mean_imbalance":%.9g,"hidden_seconds":%.9g,"prefetch_hits":%d,"mem_user_bytes":%d,"mem_system_bytes":%d,"queue_seconds":%.9g,"spills":%d,"spilled_bytes":%d,"collective":{"rings":%d,"hierarchies":%d,"direct_groups":%d,"segments":%d},"coherence":{"shipped_bytes":%d,"deferred_bytes":%d,"pulled_bytes":%d,"elided_bytes":%d,"arrays":[%s]}%s%s}|}
    (Mgacc_util.Json.escape t.machine) (Mgacc_util.Json.escape t.variant) t.num_gpus t.total_time
    t.kernel_time
    t.cpu_gpu_time t.gpu_gpu_time t.overhead_time t.cpu_gpu_bytes t.gpu_gpu_bytes t.wire_bytes
    t.loops t.launches t.rebalances t.mean_imbalance t.hidden_seconds t.prefetch_hits
    t.mem_user_bytes t.mem_system_bytes t.queue_seconds t.spills t.spilled_bytes
    t.collective_rings t.collective_hierarchies t.collective_direct_groups t.collective_segments
    t.coh_shipped_bytes t.coh_deferred_bytes t.coh_pulled_bytes (coh_elided_bytes t) coh_arrays
    fusion_json blame_json

let pp_blame ppf t =
  match t.blame with None -> () | Some b -> Blame.pp ppf b

let pp ppf t =
  Format.fprintf ppf
    "[%s/%s] total=%.6fs (kernels=%.6f cpu-gpu=%.6f gpu-gpu=%.6f ovh=%.6f%t) mem user=%s sys=%s%t%t"
    t.machine t.variant t.total_time t.kernel_time t.cpu_gpu_time t.gpu_gpu_time t.overhead_time
    (fun ppf -> if t.hidden_seconds > 0.0 then Format.fprintf ppf " hidden=%.6f" t.hidden_seconds)
    (Mgacc_util.Bytesize.to_string t.mem_user_bytes)
    (Mgacc_util.Bytesize.to_string t.mem_system_bytes)
    (fun ppf ->
      if t.coh_deferred_bytes > 0 || t.coh_pulled_bytes > 0 then
        Format.fprintf ppf " coh shipped=%s deferred=%s pulled=%s elided=%s"
          (Mgacc_util.Bytesize.to_string t.coh_shipped_bytes)
          (Mgacc_util.Bytesize.to_string t.coh_deferred_bytes)
          (Mgacc_util.Bytesize.to_string t.coh_pulled_bytes)
          (Mgacc_util.Bytesize.to_string (coh_elided_bytes t)))
    (fun ppf ->
      if t.wire_bytes > 0 then
        Format.fprintf ppf " wire=%s" (Mgacc_util.Bytesize.to_string t.wire_bytes);
      if t.collective_rings > 0 || t.collective_hierarchies > 0 then
        Format.fprintf ppf " coll rings=%d hier=%d direct=%d segs=%d" t.collective_rings
          t.collective_hierarchies t.collective_direct_groups t.collective_segments;
      if t.fused_kernels > 0 || t.contracted_arrays > 0 || t.relayouts > 0 then
        Format.fprintf ppf " fusion fused=%d contracted=%d relayouts=%d" t.fused_kernels
          t.contracted_arrays t.relayouts;
      if t.queue_seconds > 0.0 then Format.fprintf ppf " queued=%.6fs" t.queue_seconds;
      if t.spills > 0 then
        Format.fprintf ppf " spills=%d (%s)" t.spills
          (Mgacc_util.Bytesize.to_string t.spilled_bytes))
