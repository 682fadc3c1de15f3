module Machine = Mgacc_gpusim.Machine
module Fabric = Mgacc_gpusim.Fabric

type decision =
  | Keep
  | Rebalance of {
      weights : float array;
      predicted_gain : float;
      predicted_move : float;
    }

(* Bytes of block-distributed state that change owners under the new
   split: the displaced iteration fraction times the per-iteration
   footprint. *)
let move_bytes ~current ~proposed ~iterations ~bytes_per_iter =
  let moved_fraction = ref 0.0 in
  Array.iteri
    (fun g w -> moved_fraction := !moved_fraction +. Float.max 0.0 (proposed.(g) -. w))
    current;
  int_of_float
    (Float.round (!moved_fraction *. float_of_int iterations *. float_of_int bytes_per_iter))

let decide ~machine ~(knobs : Feedback.knobs) ~current ~proposed ~rates ~iterations
    ~bytes_per_iter =
  let n = float_of_int (max 1 iterations) in
  let launch_time weights =
    let worst = ref 0.0 in
    Array.iteri
      (fun g w -> worst := Float.max !worst (w *. n /. Float.max rates.(g) 1e-12))
      weights;
    !worst
  in
  let t_cur = launch_time current and t_new = launch_time proposed in
  let gain = t_cur -. t_new in
  if t_cur <= 0.0 || gain /. t_cur <= knobs.Feedback.hysteresis then Keep
  else begin
    let bytes = move_bytes ~current ~proposed ~iterations ~bytes_per_iter in
    let move =
      if bytes = 0 || Array.length current < 2 then 0.0
      else
        (* Displaced blocks ship peer-to-peer between neighbours; price one
           representative link rather than simulating the exact exchange. *)
        Fabric.transfer_time_alone machine.Machine.fabric
          (Fabric.P2p (0, Array.length current - 1))
          ~bytes
    in
    if gain *. knobs.Feedback.payoff_launches > move then
      Rebalance { weights = Array.copy proposed; predicted_gain = gain; predicted_move = move }
    else Keep
  end
