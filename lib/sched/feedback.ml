type knobs = {
  alpha : float;
  hysteresis : float;
  payoff_launches : float;
  min_share : float;
}

let default_knobs = { alpha = 0.5; hysteresis = 0.02; payoff_launches = 4.0; min_share = 0.02 }

type t = {
  knobs : knobs;
  rates : float array;  (** 0.0 = no sample yet *)
}

let create knobs ~num_gpus =
  if num_gpus <= 0 then invalid_arg "Feedback.create: num_gpus <= 0";
  if knobs.alpha <= 0.0 || knobs.alpha > 1.0 then invalid_arg "Feedback.create: alpha not in (0,1]";
  if knobs.hysteresis < 0.0 then invalid_arg "Feedback.create: negative hysteresis";
  { knobs; rates = Array.make num_gpus 0.0 }

let observe t ~iterations ~seconds =
  let n = Array.length t.rates in
  if Array.length iterations <> n || Array.length seconds <> n then
    invalid_arg "Feedback.observe: arity mismatch";
  Array.iteri
    (fun g iters ->
      if iters > 0 && seconds.(g) > 0.0 then begin
        let rate = float_of_int iters /. seconds.(g) in
        t.rates.(g) <-
          (if t.rates.(g) = 0.0 then rate
           else (t.knobs.alpha *. rate) +. ((1.0 -. t.knobs.alpha) *. t.rates.(g)))
      end)
    iterations

let rates t = if Array.exists (fun r -> r = 0.0) t.rates then None else Some (Array.copy t.rates)

(* Per-launch kernel time is the straggler's: T(w) = max_g (w_g / r_g),
   up to the common factor of the iteration count. *)
let launch_time ~weights ~rates =
  let worst = ref 0.0 in
  Array.iteri (fun g w -> worst := Float.max !worst (w /. Float.max rates.(g) 1e-12)) weights;
  !worst

type proposal = { rates : float array; weights : float array; t_current : float; t_proposed : float }

let propose t ~current =
  Option.map
    (fun rates ->
      let weights = Cost_model.quantize (Cost_model.normalize ~min_share:t.knobs.min_share rates) in
      {
        rates;
        weights;
        t_current = launch_time ~weights:current ~rates;
        t_proposed = launch_time ~weights ~rates;
      })
    (rates t)
