let log_src = Logs.Src.create "mgacc.sched" ~doc:"adaptive multi-GPU scheduler"

module Log = (val Logs.src_log log_src : Logs.LOG)

type workload = Uniform | Irregular

type loop_state = {
  mutable weights : float array option;  (** None = equal split *)
  feedback : Feedback.t;
}

type t = {
  machine : Mgacc_gpusim.Machine.t;
  num_gpus : int;
  policy : Policy.t;
  knobs : Feedback.knobs;
  loops : (int, loop_state) Hashtbl.t;
}

let create ~machine ~num_gpus ~policy ~knobs =
  if num_gpus <= 0 then invalid_arg "Scheduler.create: num_gpus <= 0";
  { machine; num_gpus; policy; knobs; loops = Hashtbl.create 8 }

let seed t ~iterations ~threads_per_iter ~iter_cost ~workload =
  match (t.policy, workload) with
  | Policy.Equal, _ -> None
  | Policy.Adaptive, Irregular ->
      (* A static model cannot see per-iteration skew; start even and let
         the feedback find the real rates. *)
      None
  | (Policy.Proportional | Policy.Adaptive), _ ->
      if Cost_model.homogeneous t.machine ~num_gpus:t.num_gpus then None
      else
        Some
          (Cost_model.seed_weights t.machine ~num_gpus:t.num_gpus ~iterations ~threads_per_iter
             ~iter_cost)

let state_for t ~loop_id ~iterations ~threads_per_iter ~iter_cost ~workload =
  match Hashtbl.find_opt t.loops loop_id with
  | Some s -> s
  | None ->
      let s =
        {
          weights = seed t ~iterations ~threads_per_iter ~iter_cost ~workload;
          feedback = Feedback.create t.knobs ~num_gpus:t.num_gpus;
        }
      in
      (match s.weights with
      | Some w ->
          Log.debug (fun m ->
              m "loop %d: proportional seed [%s]" loop_id
                (String.concat "; " (List.map (Printf.sprintf "%.3f") (Array.to_list w))))
      | None -> ());
      Hashtbl.replace t.loops loop_id s;
      s

let weights_for t ~loop_id ~iterations ~threads_per_iter ~iter_cost ~workload =
  if t.num_gpus < 2 then None
  else (state_for t ~loop_id ~iterations ~threads_per_iter ~iter_cost ~workload).weights

let observe t ~loop_id ~iterations ~seconds ~total_iterations ~bytes_per_iter =
  if t.policy <> Policy.Adaptive || t.num_gpus < 2 then false
  else
    match Hashtbl.find_opt t.loops loop_id with
    | None -> false
    | Some s -> (
        Feedback.observe s.feedback ~iterations ~seconds;
        let current =
          match s.weights with Some w -> w | None -> Cost_model.uniform t.num_gpus
        in
        match Feedback.propose s.feedback ~current with
        | None -> false
        | Some { Feedback.rates; weights = proposed; t_current; t_proposed } -> (
            Log.debug (fun m ->
                m "loop %d: rates [%s] propose [%s] vs current [%s]" loop_id
                  (String.concat "; " (List.map (Printf.sprintf "%.3e") (Array.to_list rates)))
                  (String.concat "; " (List.map (Printf.sprintf "%.3f") (Array.to_list proposed)))
                  (String.concat "; " (List.map (Printf.sprintf "%.3f") (Array.to_list current))));
            if proposed = current then false
            else if
              t_current <= 0.0 || (t_current -. t_proposed) /. t_current <= t.knobs.Feedback.hysteresis
            then false
            else
              match
                Planner.decide ~machine:t.machine ~knobs:t.knobs ~current ~proposed ~rates
                  ~iterations:total_iterations ~bytes_per_iter
              with
              | Planner.Keep -> false
              | Planner.Rebalance { weights; predicted_gain; predicted_move } ->
                  Log.debug (fun m ->
                      m "loop %d: rebalance to [%s] (gain %.3es/launch, move %.3es)" loop_id
                        (String.concat "; "
                           (List.map (Printf.sprintf "%.3f") (Array.to_list weights)))
                        predicted_gain predicted_move);
                  s.weights <- Some weights;
                  true))

let observe_events t ~loop_id ~iterations ~starts ~finishes ~total_iterations ~bytes_per_iter =
  if Array.length starts <> Array.length finishes then
    invalid_arg "Scheduler.observe_events: starts/finishes length mismatch";
  let seconds = Array.init (Array.length starts) (fun g -> finishes.(g) -. starts.(g)) in
  observe t ~loop_id ~iterations ~seconds ~total_iterations ~bytes_per_iter
