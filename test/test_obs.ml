(* Observability tests: causal spans and Perfetto flow events in the
   trace, the critical-path pass, blame-vs-profiler reconciliation, the
   metrics registry, fleet metrics — and the pinned guarantee that with
   observability off every app report stays byte-identical to the
   pre-observability runtime. *)

module Trace = Mgacc_sim.Trace
module Metrics = Mgacc_obs.Metrics
module Critical_path = Mgacc_obs.Critical_path
module Blame = Mgacc_obs.Blame
module Fleet = Mgacc_fleet.Fleet
module Rt_config = Mgacc.Rt_config
module Job = Mgacc_fleet.Job
open Mgacc_apps

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let count_sub s sub =
  let n = ref 0 in
  let sl = String.length sub in
  for i = 0 to String.length s - sl do
    if String.sub s i sl = sub then incr n
  done;
  !n

(* ---------------- observability-off identity pins ---------------- *)

(* The exact Report.to_json strings the pre-observability runtime printed
   for the five mini-apps on the 4-GPU cluster preset, in the default and
   the tuned (overlap+lazy+auto-collective) configurations. Causal-span
   recording, the blame ledger and the metrics port must never shift a
   simulated timestamp or counter. *)
let md_small = { Md.atoms = 400; max_neighbors = 8; seed = 17 }
let kmeans_small = { Kmeans.points = 500; features = 6; clusters = 4; iterations = 3; seed = 23 }
let bfs_small = { Bfs.nodes = 1500; max_degree = 5; seed = 31 }
let spmv_small = { Spmv.rows = 800; width = 6; iterations = 3; seed = 19 }
let mc_small = { Montecarlo.paths = 600; steps = 6; bins = 16; seed = 29 }

let apps =
  [
    ("md", Md.app md_small);
    ("kmeans", Kmeans.app kmeans_small);
    ("bfs", Bfs.app bfs_small);
    ("spmv", Spmv.app spmv_small);
    ("montecarlo", Montecarlo.app mc_small);
  ]

let golden_default =
  [
    ("md", {|{"machine":"GPU Cluster (2 nodes x 2 C2075)","variant":"proposal(4)","num_gpus":4,"total_time":6.20625489e-05,"kernel_time":2.84200428e-05,"cpu_gpu_time":3.36425061e-05,"gpu_gpu_time":0,"overhead_time":0,"cpu_gpu_bytes":70400,"gpu_gpu_bytes":0,"wire_bytes":0,"loops":1,"launches":4,"rebalances":0,"mean_imbalance":0,"hidden_seconds":0,"prefetch_hits":0,"mem_user_bytes":60800,"mem_system_bytes":0,"queue_seconds":0,"spills":0,"spilled_bytes":0,"collective":{"rings":0,"hierarchies":0,"direct_groups":0,"segments":0},"coherence":{"shipped_bytes":0,"deferred_bytes":0,"pulled_bytes":0,"elided_bytes":0,"arrays":[]}}|});
    ("kmeans", {|{"machine":"GPU Cluster (2 nodes x 2 C2075)","variant":"proposal(4)","num_gpus":4,"total_time":0.000562997451,"kernel_time":9.56718346e-05,"cpu_gpu_time":0.0002868494,"gpu_gpu_time":0.000180476216,"overhead_time":0,"cpu_gpu_bytes":34288,"gpu_gpu_bytes":3744,"wire_bytes":2496,"loops":6,"launches":24,"rebalances":0,"mean_imbalance":0,"hidden_seconds":0,"prefetch_hits":0,"mem_user_bytes":27600,"mem_system_bytes":832,"queue_seconds":0,"spills":0,"spilled_bytes":0,"collective":{"rings":0,"hierarchies":0,"direct_groups":0,"segments":0},"coherence":{"shipped_bytes":3744,"deferred_bytes":0,"pulled_bytes":0,"elided_bytes":0,"arrays":[{"name":"counts","shipped_bytes":288,"deferred_bytes":0,"pulled_bytes":0},{"name":"newcenters","shipped_bytes":3456,"deferred_bytes":0,"pulled_bytes":0}]}}|});
    ("bfs", {|{"machine":"GPU Cluster (2 nodes x 2 C2075)","variant":"proposal(4)","num_gpus":4,"total_time":0.00117804883,"kernel_time":0.000154841315,"cpu_gpu_time":0.000259164047,"gpu_gpu_time":0.000642843471,"overhead_time":0.0001212,"cpu_gpu_bytes":66480,"gpu_gpu_bytes":761124,"wire_bytes":507416,"loops":15,"launches":60,"rebalances":0,"mean_imbalance":0.00386458118,"hidden_seconds":0,"prefetch_hits":0,"mem_user_bytes":60000,"mem_system_bytes":50260,"queue_seconds":0,"spills":0,"spilled_bytes":0,"collective":{"rings":0,"hierarchies":0,"direct_groups":0,"segments":0},"coherence":{"shipped_bytes":761124,"deferred_bytes":0,"pulled_bytes":0,"elided_bytes":0,"arrays":[{"name":"levels","shipped_bytes":761124,"deferred_bytes":0,"pulled_bytes":0}]}}|});
    ("spmv", {|{"machine":"GPU Cluster (2 nodes x 2 C2075)","variant":"proposal(4)","num_gpus":4,"total_time":0.00033864911,"kernel_time":7.56323115e-05,"cpu_gpu_time":9.60758105e-05,"gpu_gpu_time":0.000142700988,"overhead_time":2.424e-05,"cpu_gpu_bytes":102496,"gpu_gpu_bytes":234000,"wire_bytes":156000,"loops":6,"launches":24,"rebalances":0,"mean_imbalance":0,"hidden_seconds":0,"prefetch_hits":0,"mem_user_bytes":89600,"mem_system_bytes":52404,"queue_seconds":0,"spills":0,"spilled_bytes":0,"collective":{"rings":0,"hierarchies":0,"direct_groups":0,"segments":0},"coherence":{"shipped_bytes":234000,"deferred_bytes":0,"pulled_bytes":0,"elided_bytes":0,"arrays":[{"name":"x","shipped_bytes":234000,"deferred_bytes":0,"pulled_bytes":0}]}}|});
    ("montecarlo", {|{"machine":"GPU Cluster (2 nodes x 2 C2075)","variant":"proposal(4)","num_gpus":4,"total_time":0.000108243934,"kernel_time":1.30960259e-05,"cpu_gpu_time":4.50502224e-05,"gpu_gpu_time":5.00976854e-05,"overhead_time":0,"cpu_gpu_bytes":672,"gpu_gpu_bytes":768,"wire_bytes":512,"loops":1,"launches":4,"rebalances":0,"mean_imbalance":0,"hidden_seconds":0,"prefetch_hits":0,"mem_user_bytes":512,"mem_system_bytes":512,"queue_seconds":0,"spills":0,"spilled_bytes":0,"collective":{"rings":0,"hierarchies":0,"direct_groups":0,"segments":0},"coherence":{"shipped_bytes":768,"deferred_bytes":0,"pulled_bytes":0,"elided_bytes":0,"arrays":[{"name":"hist","shipped_bytes":768,"deferred_bytes":0,"pulled_bytes":0}]}}|});
  ]
[@@ocamlformat "disable"]

let golden_tuned =
  [
    ("md", {|{"machine":"GPU Cluster (2 nodes x 2 C2075)","variant":"proposal(4)","num_gpus":4,"total_time":6.20625489e-05,"kernel_time":2.84200428e-05,"cpu_gpu_time":3.36425061e-05,"gpu_gpu_time":0,"overhead_time":0,"cpu_gpu_bytes":70400,"gpu_gpu_bytes":0,"wire_bytes":0,"loops":1,"launches":4,"rebalances":0,"mean_imbalance":0,"hidden_seconds":0,"prefetch_hits":0,"mem_user_bytes":60800,"mem_system_bytes":0,"queue_seconds":0,"spills":0,"spilled_bytes":0,"collective":{"rings":0,"hierarchies":0,"direct_groups":0,"segments":0},"coherence":{"shipped_bytes":0,"deferred_bytes":0,"pulled_bytes":0,"elided_bytes":0,"arrays":[]}}|});
    ("kmeans", {|{"machine":"GPU Cluster (2 nodes x 2 C2075)","variant":"proposal(4)","num_gpus":4,"total_time":0.000562690114,"kernel_time":9.56718346e-05,"cpu_gpu_time":0.0002868494,"gpu_gpu_time":0.00018016888,"overhead_time":0,"cpu_gpu_bytes":34288,"gpu_gpu_bytes":1872,"wire_bytes":1248,"loops":6,"launches":24,"rebalances":0,"mean_imbalance":0,"hidden_seconds":3.0733645e-07,"prefetch_hits":16,"mem_user_bytes":27600,"mem_system_bytes":832,"queue_seconds":0,"spills":0,"spilled_bytes":0,"collective":{"rings":0,"hierarchies":0,"direct_groups":0,"segments":0},"coherence":{"shipped_bytes":1872,"deferred_bytes":1872,"pulled_bytes":0,"elided_bytes":1872,"arrays":[{"name":"counts","shipped_bytes":144,"deferred_bytes":144,"pulled_bytes":0},{"name":"newcenters","shipped_bytes":1728,"deferred_bytes":1728,"pulled_bytes":0}]}}|});
    ("bfs", {|{"machine":"GPU Cluster (2 nodes x 2 C2075)","variant":"proposal(4)","num_gpus":4,"total_time":0.000743993483,"kernel_time":0.000154740301,"cpu_gpu_time":4.91408671e-05,"gpu_gpu_time":0.000534052315,"overhead_time":6.06e-06,"cpu_gpu_bytes":66480,"gpu_gpu_bytes":62988,"wire_bytes":41992,"loops":15,"launches":60,"rebalances":0,"mean_imbalance":0.00386458118,"hidden_seconds":0.00108452176,"prefetch_hits":42,"mem_user_bytes":60000,"mem_system_bytes":14104,"queue_seconds":0,"spills":0,"spilled_bytes":0,"collective":{"rings":0,"hierarchies":0,"direct_groups":41,"segments":0},"coherence":{"shipped_bytes":62988,"deferred_bytes":0,"pulled_bytes":0,"elided_bytes":0,"arrays":[{"name":"levels","shipped_bytes":62988,"deferred_bytes":0,"pulled_bytes":0}]}}|});
    ("spmv", {|{"machine":"GPU Cluster (2 nodes x 2 C2075)","variant":"proposal(4)","num_gpus":4,"total_time":0.000303383997,"kernel_time":7.56323115e-05,"cpu_gpu_time":9.60758105e-05,"gpu_gpu_time":0.000125615875,"overhead_time":6.06e-06,"cpu_gpu_bytes":102496,"gpu_gpu_bytes":57888,"wire_bytes":38592,"loops":6,"launches":24,"rebalances":0,"mean_imbalance":0,"hidden_seconds":0,"prefetch_hits":14,"mem_user_bytes":89600,"mem_system_bytes":13268,"queue_seconds":0,"spills":0,"spilled_bytes":0,"collective":{"rings":0,"hierarchies":0,"direct_groups":12,"segments":0},"coherence":{"shipped_bytes":57888,"deferred_bytes":0,"pulled_bytes":0,"elided_bytes":0,"arrays":[{"name":"x","shipped_bytes":57888,"deferred_bytes":0,"pulled_bytes":0}]}}|});
    ("montecarlo", {|{"machine":"GPU Cluster (2 nodes x 2 C2075)","variant":"proposal(4)","num_gpus":4,"total_time":9.3242278e-05,"kernel_time":1.30960259e-05,"cpu_gpu_time":3.00485667e-05,"gpu_gpu_time":5.00976854e-05,"overhead_time":0,"cpu_gpu_bytes":672,"gpu_gpu_bytes":384,"wire_bytes":256,"loops":1,"launches":4,"rebalances":0,"mean_imbalance":0,"hidden_seconds":1.50016557e-05,"prefetch_hits":0,"mem_user_bytes":512,"mem_system_bytes":512,"queue_seconds":0,"spills":0,"spilled_bytes":0,"collective":{"rings":0,"hierarchies":0,"direct_groups":0,"segments":0},"coherence":{"shipped_bytes":384,"deferred_bytes":384,"pulled_bytes":0,"elided_bytes":384,"arrays":[{"name":"hist","shipped_bytes":384,"deferred_bytes":384,"pulled_bytes":0}]}}|});
  ]
[@@ocamlformat "disable"]

let tuned_proposal ~machine app =
  App_common.proposal
    (Rt_config.make ~overlap:true ~coherence:Rt_config.Lazy ~collective:Rt_config.Auto ~num_gpus:4
       machine)
    app

let test_identity_default () =
  List.iter
    (fun (name, app) ->
      let _, r = App_common.proposal (Rt_config.make ~num_gpus:4 (Mgacc.Machine.cluster ())) app in
      check Alcotest.string name (List.assoc name golden_default) (Mgacc.Report.to_json r))
    apps

let test_identity_tuned () =
  List.iter
    (fun (name, app) ->
      let machine = Mgacc.Machine.cluster () in
      let _, r = tuned_proposal ~machine app in
      check Alcotest.string name (List.assoc name golden_tuned) (Mgacc.Report.to_json r))
    apps

(* ---------------- host wall-clock spans ---------------- *)

module Wall = Mgacc_obs.Wall

let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* A run's simulated output, everything a user sees of it: the report and
   the Chrome trace. *)
let simulated_output ~tuned (_, app) =
  let machine = Mgacc.Machine.cluster () in
  let _, r =
    if tuned then tuned_proposal ~machine app
    else App_common.proposal (Rt_config.make ~num_gpus:4 machine) app
  in
  Mgacc.Report.to_json r ^ Mgacc.Trace.to_chrome_json machine.Mgacc.Machine.trace

(* With the recorder on, every app's report and trace are byte-identical
   to the recorder-off run; the layers' times sum to no more than the
   wall time measured around the run; the loop-hook phases all recorded
   spans; and, off, a span costs no allocation. *)
let test_wall_profile () =
  List.iter
    (fun ((name, _) as app) ->
      List.iter
        (fun tuned ->
          let off = simulated_output ~tuned app in
          let t0 = clock () in
          Wall.start ();
          let on = simulated_output ~tuned app in
          Wall.stop ();
          let outside = clock () -. t0 in
          check Alcotest.string (name ^ ": simulated output with the recorder on") off on;
          let sum = List.fold_left (fun acc l -> acc +. Wall.seconds l) 0.0 Wall.all in
          (* The layers partition the recorded time exactly in
             nanoseconds; their sum in seconds may round up. *)
          if not (sum <= Wall.elapsed () *. (1.0 +. 1e-9) && Wall.elapsed () <= outside) then
            Alcotest.failf "%s: layers sum to %.9f s, recorded %.9f s, measured %.9f s" name sum
              (Wall.elapsed ()) outside;
          List.iter
            (fun l ->
              if Wall.spans l = 0 then Alcotest.failf "%s: no %s span" name (Wall.name l))
            Wall.[ Plan; Host; Kernel_compile; Load; Kernels; Reconcile; Comms; Charge; Hook; Data; Report ])
        [ false; true ])
    apps;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Wall.enter Wall.Kernels;
    Wall.leave ()
  done;
  check (Alcotest.float 0.0) "minor words of 1000 spans while off" 0.0 (Gc.minor_words () -. before)

(* A layer is credited the minor words allocated while it is the
   innermost span: a span that builds a 1,000-element list (3,000 words
   of cons cells) gets at least those, and spans that allocate nothing,
   with the recorder on, get none and cost none. *)
let test_wall_words () =
  Wall.start ();
  Wall.enter Wall.Comms;
  let l = Sys.opaque_identity (List.init 1000 Fun.id) in
  Wall.leave ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Wall.enter Wall.Charge;
    Wall.leave ()
  done;
  let spent = Gc.minor_words () -. before in
  Wall.stop ();
  check Alcotest.int "list length" 1000 (List.length l);
  if Wall.words Wall.Comms < 3000 then
    Alcotest.failf "a span that allocated a 1000-element list was credited %d words"
      (Wall.words Wall.Comms);
  check Alcotest.int "words of empty spans" 0 (Wall.words Wall.Charge);
  check (Alcotest.float 0.0) "minor words of 1000 spans while on" 0.0 spent

(* ---------------- critical-path pass ---------------- *)

let rec_span tr ?(causes = []) ~resource ~start ~finish () =
  Trace.record tr ~causes ~resource ~category:Trace.Kernel ~label:"t" ~start ~finish ~bytes:0 ()

let path_ids cp = List.map (fun (sp : Trace.span) -> sp.Trace.id) cp.Critical_path.path

let test_cp_chain () =
  let tr = Trace.create () in
  let a = rec_span tr ~resource:"r" ~start:0.0 ~finish:1.0 () in
  let b = rec_span tr ~causes:[ a ] ~resource:"r" ~start:1.0 ~finish:3.0 () in
  let c = rec_span tr ~causes:[ b ] ~resource:"r" ~start:3.0 ~finish:6.0 () in
  let cp = Critical_path.analyze (Trace.spans tr) in
  check (Alcotest.float 1e-12) "makespan" 6.0 cp.Critical_path.makespan;
  check (Alcotest.float 1e-12) "path weight" 6.0 cp.Critical_path.path_seconds;
  check (Alcotest.list Alcotest.int) "path = chain" [ a; b; c ] (path_ids cp);
  List.iter
    (fun (at : Critical_path.attribution) ->
      check Alcotest.bool "all on path" true at.Critical_path.on_path;
      check (Alcotest.float 1e-12) "fully exposed"
        (at.Critical_path.span.Trace.finish -. at.Critical_path.span.Trace.start)
        at.Critical_path.exposed)
    cp.Critical_path.spans

let test_cp_diamond () =
  let tr = Trace.create () in
  let a = rec_span tr ~resource:"a" ~start:0.0 ~finish:1.0 () in
  let b = rec_span tr ~causes:[ a ] ~resource:"b" ~start:1.0 ~finish:3.0 () in
  let c = rec_span tr ~causes:[ a ] ~resource:"c" ~start:1.0 ~finish:2.0 () in
  let d = rec_span tr ~causes:[ b; c ] ~resource:"a" ~start:3.0 ~finish:4.0 () in
  let cp = Critical_path.analyze (Trace.spans tr) in
  check (Alcotest.float 1e-12) "path a-b-d" 4.0 cp.Critical_path.path_seconds;
  check (Alcotest.list Alcotest.int) "long arm wins" [ a; b; d ] (path_ids cp);
  let attr id =
    List.find (fun at -> at.Critical_path.span.Trace.id = id) cp.Critical_path.spans
  in
  check (Alcotest.float 1e-12) "short arm hidden" 1.0 (attr c).Critical_path.hidden;
  check (Alcotest.float 1e-12) "short arm not exposed" 0.0 (attr c).Critical_path.exposed;
  check Alcotest.bool "short arm off path" false (attr c).Critical_path.on_path

let test_cp_two_chains () =
  let tr = Trace.create () in
  let x1 = rec_span tr ~resource:"x" ~start:0.0 ~finish:2.0 () in
  let x2 = rec_span tr ~causes:[ x1 ] ~resource:"x" ~start:2.0 ~finish:5.0 () in
  let y1 = rec_span tr ~resource:"y" ~start:0.0 ~finish:1.0 () in
  let _y2 = rec_span tr ~causes:[ y1 ] ~resource:"y" ~start:1.0 ~finish:3.0 () in
  let cp = Critical_path.analyze (Trace.spans tr) in
  check (Alcotest.float 1e-12) "longer chain wins" 5.0 cp.Critical_path.path_seconds;
  check (Alcotest.list Alcotest.int) "path is chain x" [ x1; x2 ] (path_ids cp);
  let total_exposed =
    List.fold_left (fun acc at -> acc +. at.Critical_path.exposed) 0.0 cp.Critical_path.spans
  in
  check (Alcotest.float 1e-12) "exposed covers makespan" cp.Critical_path.makespan total_exposed

let test_cp_implicit_resource_edges () =
  (* No explicit causes at all: same-resource program order still chains. *)
  let tr = Trace.create () in
  let a = rec_span tr ~resource:"r" ~start:0.0 ~finish:2.0 () in
  let b = rec_span tr ~resource:"r" ~start:2.0 ~finish:3.0 () in
  let cp = Critical_path.analyze (Trace.spans tr) in
  check (Alcotest.list Alcotest.int) "implicit chain" [ a; b ] (path_ids cp);
  check (Alcotest.float 1e-12) "weight" 3.0 cp.Critical_path.path_seconds

(* Random DAGs: spans with drifting starts, random durations, and a
   random backward cause each. *)
let gen_dag =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (triple (int_range 0 3) (pair (float_bound_inclusive 2.0) (float_bound_inclusive 1.0))
         (int_range 0 1000)))

let build_dag ops =
  let tr = Trace.create () in
  let t = ref 0.0 in
  List.iteri
    (fun i (res, (dur, gap), cpick) ->
      t := !t +. gap;
      let causes = if i > 0 then [ cpick mod i ] else [] in
      ignore
        (Trace.record tr ~causes
           ~resource:(Printf.sprintf "r%d" res)
           ~category:Trace.Kernel ~label:"q" ~start:!t ~finish:(!t +. dur) ~bytes:0 ()))
    ops;
  tr

let prop_exposed_hidden_conserved ops =
  let cp = Critical_path.analyze (Trace.spans (build_dag ops)) in
  let sum_dur =
    List.fold_left
      (fun acc at ->
        acc +. (at.Critical_path.span.Trace.finish -. at.Critical_path.span.Trace.start))
      0.0 cp.Critical_path.spans
  in
  let sum_eh =
    List.fold_left
      (fun acc at -> acc +. at.Critical_path.exposed +. at.Critical_path.hidden)
      0.0 cp.Critical_path.spans
  in
  let sum_exposed =
    List.fold_left (fun acc at -> acc +. at.Critical_path.exposed) 0.0 cp.Critical_path.spans
  in
  let tol = 1e-9 *. Float.max 1.0 sum_dur in
  Float.abs (sum_dur -. sum_eh) <= tol
  && sum_exposed <= cp.Critical_path.makespan +. tol
  && cp.Critical_path.path_seconds <= sum_dur +. tol

(* ---------------- blame reconciles with the profiler ---------------- *)

let blame_report ?overlap ?coherence ?collective app =
  let machine = Mgacc.Machine.cluster () in
  let config =
    Rt_config.make ~num_gpus:4 ?overlap ?coherence ?collective machine
  in
  let program = Mgacc.parse_string ~name:(app.App_common.name ^ ".c") app.App_common.source in
  let _, r = Mgacc.run_acc ~config ~with_blame:true program in
  (r, Option.get r.Mgacc.Report.blame)

let cat_sums b cat =
  let _, e, h = List.find (fun (c, _, _) -> c = cat) b.Blame.s_categories in
  (e, h)

let check_reconciles name (r : Mgacc.Report.t) (b : Blame.summary) =
  let fl = Alcotest.float 1e-12 in
  check fl (name ^ ": kernels") r.Mgacc.Report.kernel_time (fst (cat_sums b Blame.Kernel));
  check fl (name ^ ": cpu-gpu") r.Mgacc.Report.cpu_gpu_time (fst (cat_sums b Blame.Cpu_gpu));
  check fl (name ^ ": gpu-gpu") r.Mgacc.Report.gpu_gpu_time (fst (cat_sums b Blame.Gpu_gpu));
  check fl (name ^ ": overhead") r.Mgacc.Report.overhead_time (fst (cat_sums b Blame.Overhead));
  let hidden =
    List.fold_left (fun acc (_, _, h) -> acc +. h) 0.0 b.Blame.s_categories
  in
  check fl (name ^ ": hidden") r.Mgacc.Report.hidden_seconds hidden;
  (* Row sums equal category sums: the proportional split loses nothing. *)
  List.iter
    (fun (cat, e, _) ->
      let rows =
        List.fold_left
          (fun acc (row : Blame.row) ->
            if row.Blame.r_category = cat then acc +. row.Blame.r_exposed else acc)
          0.0 b.Blame.s_rows
      in
      check (Alcotest.float 1e-9) (name ^ ": rows cover category") e rows)
    b.Blame.s_categories

let test_blame_reconciles_barrier () =
  List.iter
    (fun (name, app) ->
      let r, b = blame_report app in
      check_reconciles name r b)
    apps

let test_blame_reconciles_overlap () =
  List.iter
    (fun (name, app) ->
      let r, b =
        blame_report ~overlap:true ~coherence:Rt_config.Lazy
          ~collective:Rt_config.Auto app
      in
      check_reconciles name r b)
    apps

let test_bfs_overlap_hides_comm () =
  let r, b = blame_report ~overlap:true (Bfs.app bfs_small) in
  check Alcotest.bool "overlap hid something" true (r.Mgacc.Report.hidden_seconds > 0.0);
  let comm_hidden =
    List.fold_left
      (fun acc (row : Blame.row) ->
        if
          row.Blame.r_category = Blame.Gpu_gpu
          && String.length row.Blame.r_label >= 4
          && String.sub row.Blame.r_label 0 4 = "comm"
        then acc +. row.Blame.r_hidden
        else acc)
      0.0 b.Blame.s_rows
  in
  check Alcotest.bool "peer-copy spans carry hidden time" true (comm_hidden > 0.0)

let test_blame_json_appended () =
  let r, b = blame_report (Md.app md_small) in
  let js = Mgacc.Report.to_json r in
  check Alcotest.int "blame object present" 1 (count_sub js {|"blame":{|});
  check Alcotest.int "category sums present" 1 (count_sub js {|"KERNELS":{|});
  let plain = { r with Mgacc.Report.blame = None } in
  check Alcotest.int "no blame when absent" 0 (count_sub (Mgacc.Report.to_json plain) {|"blame"|});
  ignore b

(* ---------------- flow events in the chrome trace ---------------- *)

let test_flow_events () =
  let tr = Trace.create () in
  let a =
    Trace.record tr ~resource:"gpu0" ~category:Trace.Kernel ~label:"k" ~start:0.0 ~finish:1.0
      ~bytes:0 ()
  in
  (* One real edge plus one dangling cause (id 99 was never recorded):
     the dangling one must not emit a flow pair. *)
  let _b =
    Trace.record tr ~causes:[ a; 99 ] ~resource:"pcie" ~category:Trace.Peer ~label:"x" ~start:1.0
      ~finish:2.0 ~bytes:8 ()
  in
  let s = Trace.to_chrome_json tr in
  check Alcotest.int "one flow start" 1 (count_sub s {|"ph":"s"|});
  check Alcotest.int "one flow finish" 1 (count_sub s {|"ph":"f"|});
  check Alcotest.int "enclosing binding point" 1 (count_sub s {|"bp":"e"|});
  check Alcotest.int "process named" 1 (count_sub s "process_name");
  check Alcotest.int "rows named" 2 (count_sub s "thread_name");
  check Alcotest.int "rows sorted" 2 (count_sub s "thread_sort_index");
  check Alcotest.int "span ids in args" 4 (count_sub s {|"span":|});
  check Alcotest.int "causes in args" 1 (count_sub s {|"causes":[0,99]|})

let test_causes_valid_on_real_trace () =
  let machine = Mgacc.Machine.cluster () in
  let _ = tuned_proposal ~machine (Bfs.app bfs_small) in
  let spans = Trace.spans machine.Mgacc.Machine.trace in
  let ids = Hashtbl.create 256 in
  List.iter (fun (sp : Trace.span) -> Hashtbl.replace ids sp.Trace.id ()) spans;
  let edges = ref 0 in
  List.iter
    (fun (sp : Trace.span) ->
      List.iter
        (fun c ->
          incr edges;
          check Alcotest.bool "cause id exists" true (Hashtbl.mem ids c);
          check Alcotest.bool "cause precedes span" true (c < sp.Trace.id))
        sp.Trace.causes)
    spans;
  check Alcotest.bool "the overlap run recorded causal edges" true (!edges > 0)

(* ---------------- metrics registry ---------------- *)

let test_metrics_counters_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"x" "jobs_total" in
  Metrics.inc c 2.0;
  let c' = Metrics.counter m "jobs_total" in
  Metrics.inc c' 1.0;
  check Alcotest.int "same cell" 1 (count_sub (Metrics.to_prometheus m) "\njobs_total 3\n");
  Alcotest.check_raises "negative inc" (Invalid_argument "Metrics.inc: negative increment")
    (fun () -> Metrics.inc c (-1.0));
  Alcotest.check_raises "kind conflict"
    (Invalid_argument "Metrics: jobs_total already registered as a counter") (fun () ->
      ignore (Metrics.gauge m ~labels:[ ("x", "y") ] "jobs_total"));
  (match Metrics.counter m ~labels:[ ("tenant", "a\"b") ] "jobs_total" with
  | c2 -> Metrics.inc c2 5.0);
  let g = Metrics.gauge m "depth" in
  Metrics.set g 7.0;
  let text = Metrics.to_prometheus m in
  check Alcotest.int "one TYPE per family" 2 (count_sub text "# TYPE ");
  check Alcotest.int "escaped label" 1 (count_sub text {|jobs_total{tenant="a\"b"} 5|});
  check Alcotest.int "gauge line" 1 (count_sub text "depth 7\n")

(* A histogram's quantiles are read from its cumulative buckets in the
   exposition; each observation lands in the first bucket that holds it,
   and an observation past the last bound only in +Inf. *)
let test_metrics_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[| 1.0; 2.0; 5.0 |] "lat" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.0; 10.0 ];
  check Alcotest.int "count" 1 (count_sub (Metrics.to_prometheus m) "\nlat_count 4\n");
  check Alcotest.int "sum" 1 (count_sub (Metrics.to_prometheus m) "\nlat_sum 15\n");
  let text = Metrics.to_prometheus m in
  check Alcotest.int "p25 in the first bucket" 1 (count_sub text {|lat_bucket{le="1"} 1|});
  check Alcotest.int "p50 in the second bucket" 1 (count_sub text {|lat_bucket{le="2"} 2|});
  check Alcotest.int "cumulative le=5" 1 (count_sub text {|lat_bucket{le="5"} 3|});
  check Alcotest.int "inf bucket" 1 (count_sub text {|lat_bucket{le="+Inf"} 4|});
  check Alcotest.int "count line" 1 (count_sub text "lat_count 4")

let test_metrics_events () =
  let m = Metrics.create () in
  check Alcotest.string "no events, empty log" "" (Metrics.events_to_jsonl m);
  Metrics.event m ~time:0.5 ~fields:[ ("job", 3.0) ] "admit";
  Metrics.event m ~time:1.5 "finish";
  let log = Metrics.events_to_jsonl m in
  check (Alcotest.list Alcotest.string) "jsonl lines"
    [ {|{"t":0.5,"event":"admit","fields":{"job":3}}|}; {|{"t":1.5,"event":"finish"}|} ]
    (String.split_on_char '\n' (String.trim log))

(* ---------------- fleet metrics + trace ---------------- *)

let saxpy_src =
  {|void main() {
      int n = 4000; double x[n]; double y[n]; double a = 3.0; int i;
      for (i = 0; i < n; i++) { x[i] = 0.5 * i; y[i] = 1.0; }
      #pragma acc data copyin(x[0:n]) copy(y[0:n])
      {
        #pragma acc parallel loop localaccess(x: stride(1), y: stride(1))
        for (i = 0; i < n; i++) { y[i] = y[i] + a * x[i]; }
      }
    }|}

let long_src =
  {|void main() {
      int n = 20000; int reps = 8; double x[n]; double y[n]; int i; int r;
      for (i = 0; i < n; i++) { x[i] = 0.25 * i; y[i] = 0.0; }
      #pragma acc data copyin(x[0:n]) copy(y[0:n])
      {
        for (r = 0; r < reps; r++) {
          #pragma acc parallel loop localaccess(x: stride(1), y: stride(1))
          for (i = 0; i < n; i++) { y[i] = y[i] + 1.5 * x[i]; }
        }
      }
    }|}

let fleet_jobs n =
  List.init n (fun i ->
      let long = i mod 4 = 0 in
      Job.make ~id:i
        ~tenant:(Printf.sprintf "t%d" (i mod 3))
        ~name:(if long then "long" else "saxpy")
        ~source:(if long then long_src else saxpy_src)
        ~submit:(1e-4 *. float_of_int i))

(* A minimal Prometheus text-exposition reader: family types from the
   "# TYPE" comments, then every sample line split at the last space. *)
let parse_prometheus text =
  let types = ref [] and samples = ref [] in
  List.iter
    (fun line ->
      if line = "" then ()
      else if line.[0] = '#' then (
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: name :: [ kind ] -> types := (name, kind) :: !types
        | "#" :: "HELP" :: _ -> ()
        | _ -> Alcotest.failf "bad comment line: %s" line)
      else
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "bad sample line: %s" line
        | Some i -> (
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            match float_of_string_opt v with
            | None -> Alcotest.failf "unparsable value in: %s" line
            | Some f -> samples := (String.sub line 0 i, f) :: !samples))
    (String.split_on_char '\n' text);
  (List.rev !types, List.rev !samples)

let family_of series =
  let base = match String.index_opt series '{' with
    | Some i -> String.sub series 0 i
    | None -> series
  in
  let strip suffix s =
    let sl = String.length suffix and l = String.length s in
    if l > sl && String.sub s (l - sl) sl = suffix then Some (String.sub s 0 (l - sl)) else None
  in
  match strip "_bucket" base with
  | Some f -> f
  | None -> (
      match strip "_sum" base with
      | Some f -> f
      | None -> ( match strip "_count" base with Some f -> f | None -> base))

let test_fleet_metrics () =
  let machine = Mgacc.Machine.cluster () in
  let config = Fleet.configure ~policy:Fleet.Fair ~max_concurrent:2 machine in
  let outcome = Fleet.run config (fleet_jobs 20) in
  let text = Metrics.to_prometheus outcome.Fleet.metrics in
  let types, samples = parse_prometheus text in
  (* every series belongs to a typed family *)
  List.iter
    (fun (series, _) ->
      check Alcotest.bool (series ^ " has a # TYPE") true
        (List.mem_assoc (family_of series) types))
    samples;
  List.iter
    (fun family ->
      check Alcotest.bool (family ^ " exported") true (List.mem_assoc family types))
    [
      "fleet_queue_depth"; "fleet_queue_depth_samples"; "fleet_resident_bytes";
      "fleet_wait_seconds"; "fleet_evictions_total"; "fleet_spilled_bytes_total";
      "fleet_jobs_completed_total"; "fleet_tenant_service_seconds_total";
    ];
  (* per-tenant service seconds agree with the outcome rows *)
  List.iter
    (fun (t : Fleet.tenant_row) ->
      let series =
        Printf.sprintf {|fleet_tenant_service_seconds_total{tenant="%s"}|} t.Fleet.tenant
      in
      match List.assoc_opt series samples with
      | None -> Alcotest.failf "missing series %s" series
      | Some v -> check (Alcotest.float 1e-9) series t.Fleet.t_service v)
    outcome.Fleet.tenants;
  check (Alcotest.float 0.0) "completions counted" 20.0
    (List.assoc "fleet_jobs_completed_total" samples);
  check Alcotest.bool "queue depth was sampled" true
    (List.assoc "fleet_queue_depth_samples_count" samples > 0.0);
  (* the admission event log covers every job's lifecycle *)
  let log = Metrics.events_to_jsonl outcome.Fleet.metrics in
  check Alcotest.int "20 submits" 20 (count_sub log {|"event":"submit"|});
  check Alcotest.int "20 admits" 20 (count_sub log {|"event":"admit"|});
  check Alcotest.int "20 finishes" 20 (count_sub log {|"event":"finish"|});
  (* fleet trace: tenant rows, GPU rows, and queued->run flow edges *)
  let spans = Trace.spans outcome.Fleet.trace in
  let resources = List.sort_uniq compare (List.map (fun s -> s.Trace.resource) spans) in
  List.iter
    (fun t ->
      check Alcotest.bool ("row for tenant " ^ t.Fleet.tenant) true
        (List.mem ("tenant:" ^ t.Fleet.tenant) resources))
    outcome.Fleet.tenants;
  check Alcotest.bool "gpu rows present" true (List.mem "gpu0" resources);
  let ids = Hashtbl.create 64 in
  List.iter (fun (sp : Trace.span) -> Hashtbl.replace ids sp.Trace.id ()) spans;
  List.iter
    (fun (sp : Trace.span) ->
      List.iter
        (fun c -> check Alcotest.bool "fleet trace edge resolves" true (Hashtbl.mem ids c))
        sp.Trace.causes)
    spans;
  check Alcotest.bool "queued jobs produce flow edges" true
    (List.exists (fun (sp : Trace.span) -> sp.Trace.causes <> []) spans)

let suite =
  [
    tc "identity pin: default config reports are byte-stable" test_identity_default;
    tc "identity pin: tuned config reports are byte-stable" test_identity_tuned;
    tc "wall profile: simulated output unchanged, layers within the run" test_wall_profile;
    tc "wall profile: a span is credited the words it allocates" test_wall_words;
    tc "critical path: chain" test_cp_chain;
    tc "critical path: diamond picks the long arm" test_cp_diamond;
    tc "critical path: two chains, longer wins" test_cp_two_chains;
    tc "critical path: implicit same-resource edges" test_cp_implicit_resource_edges;
    qtest "critical path: exposed+hidden conserves duration" gen_dag prop_exposed_hidden_conserved;
    tc "blame reconciles with profiler (barrier)" test_blame_reconciles_barrier;
    tc "blame reconciles with profiler (overlap)" test_blame_reconciles_overlap;
    tc "bfs overlap hides peer-copy time" test_bfs_overlap_hides_comm;
    tc "report json gains blame only when asked" test_blame_json_appended;
    tc "chrome trace: flow events" test_flow_events;
    tc "real trace: every cause resolves" test_causes_valid_on_real_trace;
    tc "metrics: counters, gauges, exposition" test_metrics_counters_gauges;
    tc "metrics: deterministic quantiles" test_metrics_quantiles;
    tc "metrics: jsonl event log" test_metrics_events;
    tc "fleet: metrics, events and trace" test_fleet_metrics;
  ]
