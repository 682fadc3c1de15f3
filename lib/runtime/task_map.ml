type range = { start_ : int; stop_ : int }

let length r = max 0 (r.stop_ - r.start_)

let split ~lower ~upper ~parts =
  if parts <= 0 then invalid_arg "Task_map.split: parts <= 0";
  if upper < lower then invalid_arg "Task_map.split: upper < lower";
  let n = upper - lower in
  let base = n / parts and rem = n mod parts in
  let ranges = Array.make parts { start_ = lower; stop_ = lower } in
  let cursor = ref lower in
  for g = 0 to parts - 1 do
    let size = base + if g < rem then 1 else 0 in
    ranges.(g) <- { start_ = !cursor; stop_ = !cursor + size };
    cursor := !cursor + size
  done;
  ranges

let split_weighted ~lower ~upper ~weights =
  let parts = Array.length weights in
  if parts <= 0 then invalid_arg "Task_map.split_weighted: no weights";
  if upper < lower then invalid_arg "Task_map.split_weighted: upper < lower";
  Array.iter
    (fun w ->
      if (not (Float.is_finite w)) || w < 0.0 then
        invalid_arg "Task_map.split_weighted: negative or non-finite weight")
    weights;
  let total_w = Array.fold_left ( +. ) 0.0 weights in
  if total_w <= 0.0 then invalid_arg "Task_map.split_weighted: all-zero weights";
  let n = upper - lower in
  (* Largest-remainder rounding: floor every quota, then hand the leftover
     iterations to the largest fractional parts (ties to the leading GPUs,
     which makes equal weights reproduce [split] exactly). *)
  let quota = Array.map (fun w -> float_of_int n *. w /. total_w) weights in
  let sizes = Array.map (fun q -> int_of_float (Float.floor q)) quota in
  let assigned = Array.fold_left ( + ) 0 sizes in
  let order = Array.init parts (fun g -> g) in
  Array.sort
    (fun a b ->
      let fa = quota.(a) -. Float.floor quota.(a) and fb = quota.(b) -. Float.floor quota.(b) in
      if fa = fb then compare a b else compare fb fa)
    order;
  for k = 0 to n - assigned - 1 do
    let g = order.(k mod parts) in
    sizes.(g) <- sizes.(g) + 1
  done;
  let ranges = Array.make parts { start_ = lower; stop_ = lower } in
  let cursor = ref lower in
  for g = 0 to parts - 1 do
    ranges.(g) <- { start_ = !cursor; stop_ = !cursor + sizes.(g) };
    cursor := !cursor + sizes.(g)
  done;
  assert (!cursor = upper);
  ranges

let window r ~stride ~left ~right ~max_len =
  if length r = 0 then Mgacc_util.Interval.empty
  else
    Mgacc_util.Interval.clamp
      (Mgacc_util.Interval.make ((stride * r.start_) - left) ((stride * r.stop_) + right))
      ~lo:0 ~hi:max_len

let affine_window r ~coeff ~cmin ~cmax =
  if length r = 0 then Mgacc_util.Interval.empty
  else
    let lo_it = r.start_ and hi_it = r.stop_ - 1 in
    let lo, hi =
      if coeff >= 0 then ((coeff * lo_it) + cmin, (coeff * hi_it) + cmax + 1)
      else ((coeff * hi_it) + cmin, (coeff * lo_it) + cmax + 1)
    in
    Mgacc_util.Interval.make (max 0 lo) hi
