(* Scheduler tests: split properties (QCheck), the roofline cost model,
   the feedback controller, the rebalance planner, the translator's
   schedule hints, and end-to-end policy behavior on the mixed machine —
   including the acceptance shapes: proportional/adaptive beat the equal
   split on the heterogeneous preset, and adaptive is a bit-identical
   no-op on homogeneous ones. *)

module Task_map = Mgacc_runtime.Task_map
module Interval = Mgacc_util.Interval
module Cost_model = Mgacc_sched.Cost_model
module Feedback = Mgacc_sched.Feedback
module Planner = Mgacc_sched.Planner
module Scheduler = Mgacc_sched.Scheduler
module Policy = Mgacc_sched.Policy
open Mgacc

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------------- Task_map.split properties ---------------- *)

let gen_split =
  QCheck2.Gen.(
    map
      (fun (lower, len, parts) -> (lower - 50, len, 1 + parts))
      (triple (int_bound 100) (int_bound 200) (int_bound 7)))

let contiguous_cover ~lower ~upper ranges =
  Array.length ranges > 0
  && ranges.(0).Task_map.start_ = lower
  && ranges.(Array.length ranges - 1).Task_map.stop_ = upper
  && Array.for_all (fun r -> r.Task_map.stop_ >= r.Task_map.start_) ranges
  && fst
       (Array.fold_left
          (fun (ok, prev) r -> (ok && r.Task_map.start_ = prev, r.Task_map.stop_))
          (true, lower) ranges)

let prop_split_contiguous_cover (lower, len, parts) =
  let upper = lower + len in
  contiguous_cover ~lower ~upper (Task_map.split ~lower ~upper ~parts)

let prop_split_sizes (lower, len, parts) =
  let upper = lower + len in
  let ranges = Task_map.split ~lower ~upper ~parts in
  let sizes = Array.map Task_map.length ranges in
  let mx = Array.fold_left max min_int sizes and mn = Array.fold_left min max_int sizes in
  Array.length ranges = parts && mx - mn <= 1

let prop_empty_range_window (lower, _, _) =
  let r = { Task_map.start_ = lower; stop_ = lower } in
  Interval.length (Task_map.window r ~stride:3 ~left:1 ~right:2 ~max_len:1000) = 0

(* ---------------- Task_map.split_weighted properties ---------------- *)

let gen_weighted =
  QCheck2.Gen.(
    triple (int_bound 100) (int_bound 300)
      (list_size (int_range 1 6) (map (fun x -> 0.02 +. float_of_int x) (int_bound 20))))

let prop_weighted_contiguous_cover (lower, len, ws) =
  let lower = lower - 50 and weights = Array.of_list ws in
  let upper = lower + len in
  contiguous_cover ~lower ~upper (Task_map.split_weighted ~lower ~upper ~weights)

(* Largest-remainder rounding: every part holds within one iteration of
   its exact quota. *)
let prop_weighted_quota (lower, len, ws) =
  let lower = lower - 50 and weights = Array.of_list ws in
  let upper = lower + len in
  let ranges = Task_map.split_weighted ~lower ~upper ~weights in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let n = float_of_int (upper - lower) in
  Array.length ranges = Array.length weights
  && Array.for_all2
       (fun r w ->
         Float.abs (float_of_int (Task_map.length r) -. (w /. total *. n)) < 1.0 +. 1e-9)
       ranges weights

let prop_weighted_equal_is_split (lower, len, parts) =
  let upper = lower + len in
  Task_map.split_weighted ~lower ~upper ~weights:(Array.make parts (1.0 /. float_of_int parts))
  = Task_map.split ~lower ~upper ~parts

(* ---------------- Cost model ---------------- *)

(* A zero cost makes the model fall back to its nominal memory-bound mix. *)
let nominal = Mgacc_gpusim.Cost.zero ()

let test_homogeneous () =
  Alcotest.(check bool) "desktop is homogeneous" true
    (Cost_model.homogeneous (Machine.desktop ()) ~num_gpus:2);
  Alcotest.(check bool) "mixed desktop is not" false
    (Cost_model.homogeneous (Machine.desktop_mixed ()) ~num_gpus:2)

let test_seed_weights () =
  let uniform =
    Cost_model.seed_weights (Machine.desktop ()) ~num_gpus:2 ~iterations:100000
      ~threads_per_iter:1 ~iter_cost:nominal
  in
  Alcotest.(check (array (float 1e-12))) "homogeneous seed is uniform" [| 0.5; 0.5 |] uniform;
  let w =
    Cost_model.seed_weights (Machine.desktop_mixed ()) ~num_gpus:2 ~iterations:100000
      ~threads_per_iter:1 ~iter_cost:nominal
  in
  Alcotest.(check bool) "C2075 earns the larger share" true (w.(0) > w.(1));
  Alcotest.(check (float 1e-9)) "weights sum to 1" 1.0 (w.(0) +. w.(1))

let gen_quantize =
  QCheck2.Gen.(list_size (int_range 1 6) (map (fun x -> 0.01 +. float_of_int x) (int_bound 50)))

let prop_quantize ws =
  let w = Cost_model.normalize (Array.of_list ws) in
  let q = Cost_model.quantize ~grid:64 w in
  let unit = 1.0 /. 64.0 in
  Float.abs (Array.fold_left ( +. ) 0.0 q -. 1.0) < 1e-9
  && Array.for_all
       (fun x ->
         x >= unit -. 1e-12 && Float.abs ((x /. unit) -. Float.round (x /. unit)) < 1e-9)
       q

(* ---------------- Feedback controller ---------------- *)

let test_feedback_unrated () =
  let fb = Feedback.create Feedback.default_knobs ~num_gpus:2 in
  Alcotest.(check bool) "no samples: unrated" true (Feedback.rates fb = None);
  Feedback.observe fb ~iterations:[| 100; 0 |] ~seconds:[| 1e-4; 0.0 |];
  Alcotest.(check bool) "device 1 never ran: still unrated" true (Feedback.rates fb = None);
  Alcotest.(check bool) "unrated: no proposal" true (Feedback.propose fb ~current:[| 0.5; 0.5 |] = None)

(* The fractional gain of moving to a proposal's weights. *)
let proposal_gain fb ~current =
  match Feedback.propose fb ~current with
  | None -> Alcotest.fail "expected a proposal once every device is rated"
  | Some p -> (p, (p.Feedback.t_current -. p.Feedback.t_proposed) /. p.Feedback.t_current)

let test_feedback_balanced () =
  let fb = Feedback.create Feedback.default_knobs ~num_gpus:2 in
  Feedback.observe fb ~iterations:[| 100; 100 |] ~seconds:[| 1e-4; 1e-4 |];
  let p, gain = proposal_gain fb ~current:[| 0.5; 0.5 |] in
  Alcotest.(check (array (float 0.0))) "equal rates: the equal split" [| 0.5; 0.5 |] p.Feedback.weights;
  Alcotest.(check (float 1e-9)) "equal rates: no predicted gain" 0.0 gain

let test_feedback_skewed () =
  let fb = Feedback.create Feedback.default_knobs ~num_gpus:2 in
  Feedback.observe fb ~iterations:[| 100; 100 |] ~seconds:[| 1e-4; 3e-4 |];
  let p, gain = proposal_gain fb ~current:[| 0.5; 0.5 |] in
  let w = p.Feedback.weights in
  Alcotest.(check bool) "fast GPU earns the larger share" true (w.(0) > w.(1));
  Alcotest.(check bool) "skew predicts a gain over the equal split" true (gain > 0.2)

(* ---------------- Rebalance planner ---------------- *)

let planner_case ~bytes_per_iter =
  Planner.decide ~machine:(Machine.desktop ()) ~knobs:Feedback.default_knobs
    ~current:[| 0.5; 0.5 |]
    ~proposed:[| 0.65625; 0.34375 |]
    ~rates:[| 2e9; 1e9 |] ~iterations:1_000_000 ~bytes_per_iter

let test_planner_free_move () =
  match planner_case ~bytes_per_iter:0 with
  | Planner.Rebalance { predicted_gain; predicted_move; _ } ->
      Alcotest.(check bool) "gain positive" true (predicted_gain > 0.0);
      Alcotest.(check (float 1e-12)) "nothing to move" 0.0 predicted_move
  | Planner.Keep -> Alcotest.fail "large gain with free movement must rebalance"

let test_planner_expensive_move () =
  match planner_case ~bytes_per_iter:100_000 with
  | Planner.Keep -> ()
  | Planner.Rebalance { predicted_gain; predicted_move; _ } ->
      Alcotest.failf "movement (%.3gs) should have swamped the gain (%.3gs)" predicted_move
        predicted_gain

let test_planner_hysteresis () =
  match
    Planner.decide ~machine:(Machine.desktop ()) ~knobs:Feedback.default_knobs
      ~current:[| 0.5; 0.5 |]
      ~proposed:[| 0.505; 0.495 |]
      ~rates:[| 1.01e9; 0.99e9 |] ~iterations:1_000_000 ~bytes_per_iter:0
  with
  | Planner.Keep -> ()
  | Planner.Rebalance _ -> Alcotest.fail "sub-hysteresis gain must not churn the split"

(* ---------------- Scheduler unit behavior ---------------- *)

let weights_for sched ~workload =
  Scheduler.weights_for sched ~loop_id:0 ~iterations:100_000 ~threads_per_iter:1
    ~iter_cost:nominal ~workload

let test_scheduler_equal_policy () =
  let s =
    Scheduler.create ~machine:(Machine.desktop_mixed ()) ~num_gpus:2 ~policy:Policy.Equal
      ~knobs:Feedback.default_knobs
  in
  Alcotest.(check bool) "equal policy never proposes weights" true
    (weights_for s ~workload:Scheduler.Uniform = None)

let test_scheduler_proportional () =
  let homog =
    Scheduler.create ~machine:(Machine.desktop ()) ~num_gpus:2 ~policy:Policy.Proportional
      ~knobs:Feedback.default_knobs
  in
  Alcotest.(check bool) "homogeneous: fall back to the equal split" true
    (weights_for homog ~workload:Scheduler.Uniform = None);
  let mixed =
    Scheduler.create ~machine:(Machine.desktop_mixed ()) ~num_gpus:2 ~policy:Policy.Proportional
      ~knobs:Feedback.default_knobs
  in
  match weights_for mixed ~workload:Scheduler.Uniform with
  | None -> Alcotest.fail "mixed machine: expected a proportional seed"
  | Some w -> Alcotest.(check bool) "C2075 earns the larger share" true (w.(0) > w.(1))

let test_scheduler_adaptive_feedback () =
  let s =
    Scheduler.create ~machine:(Machine.desktop_mixed ()) ~num_gpus:2 ~policy:Policy.Adaptive
      ~knobs:Feedback.default_knobs
  in
  (* Irregular loops seed equal: the static model cannot see the skew. *)
  Alcotest.(check bool) "irregular: seed is the equal split" true
    (weights_for s ~workload:Scheduler.Irregular = None);
  let committed =
    Scheduler.observe_events s ~loop_id:0 ~iterations:[| 50_000; 50_000 |] ~starts:[| 0.0; 0.0 |]
      ~finishes:[| 1e-4; 3e-4 |] ~total_iterations:100_000 ~bytes_per_iter:0
  in
  Alcotest.(check bool) "strong skew with free movement commits a re-split" true committed;
  match weights_for s ~workload:Scheduler.Irregular with
  | None -> Alcotest.fail "expected the committed re-split"
  | Some w -> Alcotest.(check bool) "re-split favors the fast GPU" true (w.(0) > w.(1))

(* ---------------- Translator schedule hints ---------------- *)

let hints_of source name =
  let program = parse_string ~name:(name ^ ".c") source in
  List.map Kernel_plan.schedule_hint (Program_plan.all_plans (compile program))

let test_schedule_hints () =
  let md = hints_of (Mgacc_apps.Md.app Mgacc_apps.Md.default_params).Mgacc_apps.App_common.source "md" in
  Alcotest.(check bool) "md is uniform (dynamic subscripts, fixed trips)" true
    (List.for_all (( = ) `Uniform) md);
  let km =
    hints_of (Mgacc_apps.Kmeans.app Mgacc_apps.Kmeans.default_params).Mgacc_apps.App_common.source "kmeans"
  in
  Alcotest.(check bool) "kmeans is uniform" true (List.for_all (( = ) `Uniform) km);
  let bfs = hints_of (Mgacc_apps.Bfs.app Mgacc_apps.Bfs.default_params).Mgacc_apps.App_common.source "bfs" in
  Alcotest.(check bool) "bfs is irregular (tainted trip count / frontier test)" true
    (List.exists (( = ) `Irregular) bfs)

(* ---------------- Empty-range launches ---------------- *)

let tiny_loop_source n =
  Printf.sprintf
    {|
void main() {
  double a[8];
  int i;
  for (i = 0; i < 8; i++) { a[i] = 1.0; }
  #pragma acc data copy(a[0:8])
  {
    #pragma acc parallel loop
    for (i = 0; i < %d; i++) { a[i] = a[i] + 1.0; }
  }
}
|}
    n

let run_with ~machine ~schedule source name =
  let program = parse_string ~name:(name ^ ".c") source in
  let config = Rt_config.make ~schedule machine in
  run_acc ~config program

let test_empty_launches () =
  (* One iteration over two GPUs: one GPU's range is empty and must not
     reach the profiler or the trace. *)
  let machine = Machine.desktop () in
  let env, report = run_with ~machine ~schedule:Policy.Equal (tiny_loop_source 1) "tiny1" in
  Alcotest.(check int) "1 iteration on 2 GPUs: a single kernel launch" 1
    report.Report.launches;
  Alcotest.(check (float 1e-12)) "the one iteration ran" 2.0 (float_results env "a").(0);
  let machine = Machine.desktop () in
  let _, report = run_with ~machine ~schedule:Policy.Equal (tiny_loop_source 0) "tiny0" in
  Alcotest.(check int) "0 iterations: no kernel launches at all" 0 report.Report.launches

(* ---------------- Homogeneous machines: adaptive is a no-op ---------------- *)

let test_adaptive_noop_on_homogeneous () =
  let app = Mgacc_apps.Kmeans.app { points = 2000; features = 8; clusters = 4; iterations = 4; seed = 11 } in
  let run schedule =
    let machine = Machine.desktop () in
    run_with ~machine ~schedule app.Mgacc_apps.App_common.source app.Mgacc_apps.App_common.name
  in
  let env_eq, r_eq = run Policy.Equal in
  let env_ad, r_ad = run Policy.Adaptive in
  Alcotest.(check int) "no re-splits on a homogeneous machine" 0 r_ad.Report.rebalances;
  Alcotest.(check (float 0.0)) "total time identical to the equal split" r_eq.Report.total_time
    r_ad.Report.total_time;
  Alcotest.(check (float 0.0)) "kernel time identical" r_eq.Report.kernel_time
    r_ad.Report.kernel_time;
  Alcotest.(check (float 0.0)) "traffic identical" r_eq.Report.cpu_gpu_time
    r_ad.Report.cpu_gpu_time;
  List.iter
    (fun name ->
      Alcotest.(check (array (float 0.0)))
        (name ^ " bit-identical") (float_results env_eq name) (float_results env_ad name))
    [ "centers" ]

(* ---------------- Adaptive rebalancing on a skewed irregular loop ------- *)

(* Triangular work (the inner trip count grows with the parallel index)
   defeats both the equal split and the static seed; only runtime feedback
   can see it. The mixed machine plus a block-distributed output array
   exercises the full path: feedback -> planner -> committed re-split ->
   GPU-to-GPU repartitioning of [a]. The loop is big enough that the
   amortized gain clears the fabric's 15us peer latency. *)
let skewed_source =
  {|
void main() {
  int n = 32768;
  double a[n];
  double b[64];
  int i;
  int t;
  for (i = 0; i < n; i++) { a[i] = 0.0; }
  for (i = 0; i < 64; i++) { b[i] = 0.5; }
  #pragma acc data copy(a[0:n]) copyin(b[0:64])
  {
    for (t = 0; t < 4; t++) {
      #pragma acc parallel loop localaccess(a: stride(1))
      for (i = 0; i < n; i++) {
        int w = (i * 64) / n;
        double s = 0.0;
        int k;
        for (k = 0; k < w; k++) { s = s + b[k]; }
        a[i] = a[i] + s;
      }
    }
  }
}
|}

let test_adaptive_rebalances_skew () =
  let hints = hints_of skewed_source "skew" in
  Alcotest.(check bool) "the skewed loop is flagged irregular" true
    (List.exists (( = ) `Irregular) hints);
  let machine = Machine.desktop_mixed () in
  let env, report = run_with ~machine ~schedule:Policy.Adaptive skewed_source "skew" in
  Alcotest.(check bool) "feedback committed at least one re-split" true
    (report.Report.rebalances > 0);
  let reference = run_sequential (parse_string ~name:"skew.c" skewed_source) in
  Alcotest.(check (array (float 0.0)))
    "results bit-identical to the sequential reference" (float_results reference "a")
    (float_results env "a")

(* ---------------- The balance study (the bench's smoke shape) ---------- *)

let test_balance_smoke () =
  let rows = Mgacc_apps.Balance_study.run ~smoke:true () in
  Alcotest.(check int) "3 apps x 3 policies" 9 (List.length rows);
  List.iter
    (fun (r : Mgacc_apps.Balance_study.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s verified" r.app (Policy.to_string r.policy))
        true r.ok)
    rows;
  let kernel app policy =
    let r = List.find (fun (r : Mgacc_apps.Balance_study.row) -> r.app = app && r.policy = policy) rows in
    r.report.Report.kernel_time
  in
  List.iter
    (fun app ->
      List.iter
        (fun policy ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s no slower than the equal split" app (Policy.to_string policy))
            true
            (kernel app policy <= kernel app Policy.Equal +. 1e-12))
        [ Policy.Proportional; Policy.Adaptive ])
    [ "md"; "kmeans" ]

let suite =
  [
    qtest "split: contiguous cover" gen_split prop_split_contiguous_cover;
    qtest "split: sizes within one" gen_split prop_split_sizes;
    qtest "split: empty range, empty window" gen_split prop_empty_range_window;
    qtest "split_weighted: contiguous cover" gen_weighted prop_weighted_contiguous_cover;
    qtest "split_weighted: largest-remainder quotas" gen_weighted prop_weighted_quota;
    qtest "split_weighted: equal weights = split" gen_split prop_weighted_equal_is_split;
    Alcotest.test_case "cost model: homogeneity detection" `Quick test_homogeneous;
    Alcotest.test_case "cost model: seed weights" `Quick test_seed_weights;
    qtest ~count:200 "cost model: quantize grid" gen_quantize prop_quantize;
    Alcotest.test_case "feedback: unrated until all sampled" `Quick test_feedback_unrated;
    Alcotest.test_case "feedback: balanced predicts nothing" `Quick test_feedback_balanced;
    Alcotest.test_case "feedback: skew favors the fast GPU" `Quick test_feedback_skewed;
    Alcotest.test_case "planner: free movement rebalances" `Quick test_planner_free_move;
    Alcotest.test_case "planner: expensive movement keeps" `Quick test_planner_expensive_move;
    Alcotest.test_case "planner: hysteresis" `Quick test_planner_hysteresis;
    Alcotest.test_case "scheduler: equal policy" `Quick test_scheduler_equal_policy;
    Alcotest.test_case "scheduler: proportional seeds" `Quick test_scheduler_proportional;
    Alcotest.test_case "scheduler: adaptive feedback" `Quick test_scheduler_adaptive_feedback;
    Alcotest.test_case "translator: schedule hints" `Quick test_schedule_hints;
    Alcotest.test_case "runtime: empty ranges launch nothing" `Quick test_empty_launches;
    Alcotest.test_case "adaptive: no-op on homogeneous machines" `Slow
      test_adaptive_noop_on_homogeneous;
    Alcotest.test_case "adaptive: rebalances a skewed irregular loop" `Slow
      test_adaptive_rebalances_skew;
    Alcotest.test_case "balance study: smoke" `Slow test_balance_smoke;
  ]
