module Machine = Mgacc_gpusim.Machine
module Device = Mgacc_gpusim.Device
module Spec = Mgacc_gpusim.Spec
module Cost = Mgacc_gpusim.Cost
module Kernel_cost = Mgacc_gpusim.Kernel_cost

let homogeneous machine ~num_gpus =
  let spec g = (Machine.device machine g).Device.spec in
  let first = spec 0 in
  let ok = ref true in
  for g = 1 to num_gpus - 1 do
    if spec g <> first then ok := false
  done;
  !ok

let uniform n =
  if n <= 0 then invalid_arg "Cost_model.uniform: n <= 0";
  Array.make n (1.0 /. float_of_int n)

(* A kernel we know nothing about: assume the memory-bound mix typical of
   the paper's applications (one flop and a couple of streamed operands per
   iteration) so that bandwidth differences between devices register. *)
let nominal_iter_cost () =
  {
    Cost.flops = 2;
    int_ops = 2;
    coalesced_bytes = 24;
    broadcast_bytes = 0;
    random_accesses = 0;
    random_bytes = 0;
  }

(* Predicted iteration rate (iterations/second) of each device if it ran
   the whole loop alone. A zero [iter_cost] falls back to a nominal
   memory-bound mix so heterogeneity still registers. *)
let device_rates machine ~num_gpus ~iterations ~threads_per_iter ~iter_cost =
  if num_gpus <= 0 then invalid_arg "Cost_model.device_rates: num_gpus <= 0";
  let iter_cost = if Cost.is_zero iter_cost then nominal_iter_cost () else iter_cost in
  let n = max 1 iterations in
  let total = Cost.scale iter_cost n in
  Array.init num_gpus (fun g ->
      let spec = (Machine.device machine g).Device.spec in
      (* Marginal throughput: drop the per-launch overhead. It is paid
         once regardless of the share, so folding it into the rate would
         skew weights by a constant the split cannot recover — and make
         them wobble with the loop's cost vector, defeating reuse of one
         partitioning across similar loops. *)
      let d =
        Kernel_cost.duration spec ~threads:(n * max 1 threads_per_iter) total
        -. spec.Spec.kernel_launch_overhead
      in
      float_of_int n /. Float.max d 1e-12)

let normalize ?(min_share = 0.01) weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Cost_model.normalize: empty";
  Array.iter
    (fun w ->
      if (not (Float.is_finite w)) || w < 0.0 then
        invalid_arg "Cost_model.normalize: negative or non-finite weight")
    weights;
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Cost_model.normalize: all-zero weights";
  let w = Array.map (fun x -> Float.max min_share (x /. total)) weights in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

let quantize ?(grid = 64) weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Cost_model.quantize: empty";
  if grid < n then invalid_arg "Cost_model.quantize: grid finer than weight count";
  (* Largest-remainder apportionment of [grid] units, at least one unit
     per device so nobody quantizes to zero. *)
  let quota = Array.map (fun w -> w *. float_of_int grid) weights in
  let units = Array.map (fun q -> max 1 (int_of_float (Float.floor q))) quota in
  let used = Array.fold_left ( + ) 0 units in
  let by_frac =
    List.sort
      (fun a b ->
        let fa = quota.(a) -. Float.floor quota.(a) and fb = quota.(b) -. Float.floor quota.(b) in
        if fa = fb then compare a b else compare fb fa)
      (List.init n Fun.id)
  in
  let leftover = ref (grid - used) in
  List.iter
    (fun g ->
      if !leftover > 0 then begin
        units.(g) <- units.(g) + 1;
        decr leftover
      end)
    by_frac;
  (* A negative leftover (min-1 bumps overshot) only happens when many
     weights sit below one unit; shave the largest holders. *)
  while Array.fold_left ( + ) 0 units > grid do
    let gmax = ref 0 in
    Array.iteri (fun g u -> if u > units.(!gmax) then gmax := g) units;
    units.(!gmax) <- units.(!gmax) - 1
  done;
  Array.map (fun u -> float_of_int u /. float_of_int grid) units

(* Roofline duration estimate for one launch if the loop were split
   perfectly across the devices: total iterations over the summed device
   rates. This is what the fleet's shortest-job-first policy ranks
   un-measured jobs by — relative ordering is all that matters. *)
let estimate_launch_seconds machine ~num_gpus ~iterations ~threads_per_iter ~iter_cost =
  let rates = device_rates machine ~num_gpus ~iterations ~threads_per_iter ~iter_cost in
  let total_rate = Array.fold_left ( +. ) 0.0 rates in
  float_of_int (max 1 iterations) /. Float.max total_rate 1e-12

let seed_weights machine ~num_gpus ~iterations ~threads_per_iter ~iter_cost =
  if homogeneous machine ~num_gpus then uniform num_gpus
  else
    quantize (normalize (device_rates machine ~num_gpus ~iterations ~threads_per_iter ~iter_cost))
