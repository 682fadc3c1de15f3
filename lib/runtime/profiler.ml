module Blame = Mgacc_obs.Blame

type memory_report = { user_bytes : int; system_bytes : int }

type coh_cell = { mutable shipped : int; mutable deferred : int; mutable pulled : int }

type t = {
  ledger : Blame.t;
  coh : (string, coh_cell) Hashtbl.t;
  mutable cpu_gpu_bytes : int;
  mutable gpu_gpu_bytes : int;
  mutable wire_bytes : int;
  mutable collective_rings : int;
  mutable collective_hierarchies : int;
  mutable collective_direct_groups : int;
  mutable collective_segments : int;
  mutable kernel_launches : int;
  mutable loops : int;
  mutable rebalances : int;
  mutable imbalance_sum : float;
  mutable imbalance_samples : int;
  mutable prefetch_hits : int;
  mutable fused_kernels : int;
  mutable contracted_arrays : int;
  mutable relayouts : int;
  mutable spills : int;
  mutable spilled_bytes : int;
  mutable mem : memory_report;
}

let create () =
  {
    ledger = Blame.create ();
    coh = Hashtbl.create 8;
    cpu_gpu_bytes = 0;
    gpu_gpu_bytes = 0;
    wire_bytes = 0;
    collective_rings = 0;
    collective_hierarchies = 0;
    collective_direct_groups = 0;
    collective_segments = 0;
    kernel_launches = 0;
    loops = 0;
    rebalances = 0;
    imbalance_sum = 0.0;
    imbalance_samples = 0;
    prefetch_hits = 0;
    fused_kernels = 0;
    contracted_arrays = 0;
    relayouts = 0;
    spills = 0;
    spilled_bytes = 0;
    mem = { user_bytes = 0; system_bytes = 0 };
  }

(* An increment, refused when negative: a tally only grows. *)
let count what n = if n < 0 then invalid_arg ("Profiler: negative " ^ what) else n

let charge t ?spans cat ~label ~exposed ~hidden ~bytes =
  if exposed < 0. then invalid_arg "Profiler: negative exposed seconds";
  (match cat with
  | Blame.Kernel | Blame.Overhead -> ()
  | Blame.Cpu_gpu -> t.cpu_gpu_bytes <- t.cpu_gpu_bytes + count "bytes" bytes
  | Blame.Gpu_gpu -> t.gpu_gpu_bytes <- t.gpu_gpu_bytes + count "bytes" bytes);
  Blame.charge t.ledger ?spans cat ~label ~exposed ~hidden

let add_wire_bytes t ~bytes = t.wire_bytes <- t.wire_bytes + count "wire bytes" bytes

let add_collective t ~rings ~hierarchies ~direct_groups ~segments =
  t.collective_rings <- t.collective_rings + count "rings" rings;
  t.collective_hierarchies <- t.collective_hierarchies + count "hierarchies" hierarchies;
  t.collective_direct_groups <- t.collective_direct_groups + count "direct groups" direct_groups;
  t.collective_segments <- t.collective_segments + count "segments" segments

let incr_kernel_launches t = t.kernel_launches <- t.kernel_launches + 1
let incr_loops t = t.loops <- t.loops + 1
let incr_rebalances t = t.rebalances <- t.rebalances + 1

let add_imbalance t ~ratio =
  if ratio < 0. then invalid_arg "Profiler: negative imbalance";
  t.imbalance_sum <- t.imbalance_sum +. ratio;
  t.imbalance_samples <- t.imbalance_samples + 1

let add_prefetch_hits t ~count:n = t.prefetch_hits <- t.prefetch_hits + count "prefetch hits" n
let add_fused_kernels t ~count:n = t.fused_kernels <- t.fused_kernels + count "fused kernels" n

let add_contracted_arrays t ~count:n =
  t.contracted_arrays <- t.contracted_arrays + count "contracted arrays" n

let add_relayout t = t.relayouts <- t.relayouts + 1

let add_spill t ~bytes =
  t.spilled_bytes <- t.spilled_bytes + count "spilled bytes" bytes;
  t.spills <- t.spills + 1

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

let record_memory_peaks t machine ~num_gpus =
  let user = ref 0 and system = ref 0 in
  for g = 0 to num_gpus - 1 do
    let mem = (Mgacc_gpusim.Machine.device machine g).Mgacc_gpusim.Device.memory in
    user := !user + Mgacc_gpusim.Memory.peak_class mem `User;
    system := !system + Mgacc_gpusim.Memory.peak_class mem `System
  done;
  t.mem <- { user_bytes = max t.mem.user_bytes !user; system_bytes = max t.mem.system_bytes !system }
