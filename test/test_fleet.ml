(* Fleet service tests: re-entrant sessions on a shared machine, the
   compile-once plan cache, device-memory admission with warm-pool
   eviction/spill, the scheduling policies, and the pinned guarantees —
   back-to-back runs on one machine match fresh-machine runs, and a
   single fleet job reproduces the direct runtime bit-for-bit. *)

module Machine = Mgacc_gpusim.Machine
module Memory = Mgacc_gpusim.Memory
module View = Mgacc_exec.View
open Mgacc_runtime
module Fleet = Mgacc_fleet.Fleet
module Job = Mgacc_fleet.Job
module Plan_cache = Mgacc_fleet.Plan_cache
module Admission = Mgacc_fleet.Admission

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

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

(* A deliberately heavier program, so SJF has something to reorder. *)
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

let cluster () = Machine.cluster ~nodes:2 ~gpus_per_node:2 ()

let job ?(tenant = "t0") ?(name = "job") ?(src = saxpy_src) id submit =
  Job.make ~id ~tenant ~name ~source:src ~submit

(* ---------------- back-to-back runs on one machine ---------------- *)

(* The pinned regression for the runtime's old leak: machine timelines
   carry monotonic availability cursors, so before [Acc_runtime.run]
   reset them a second run on the same machine started late and reported
   different times than a fresh process would. *)
let test_back_to_back_machine_reuse () =
  let program = Mgacc.parse_string ~name:"saxpy.c" saxpy_src in
  let shared = Machine.desktop () in
  let cfg m = Rt_config.make ~num_gpus:2 m in
  let _, first = Mgacc.run_acc ~config:(cfg shared) program in
  let _, second = Mgacc.run_acc ~config:(cfg shared) program in
  let fresh_machine = Machine.desktop () in
  let _, fresh = Mgacc.run_acc ~config:(cfg fresh_machine) program in
  check Alcotest.bool "second run identical to a fresh-process run" true (second = fresh);
  check Alcotest.bool "first run identical too" true (first = fresh)

let test_session_start_offsets_clock () =
  let program = Mgacc.parse_string ~name:"saxpy.c" saxpy_src in
  let plans = Mgacc.compile program in
  let cfg = Rt_config.make ~num_gpus:2 (Machine.desktop ()) in
  let s = Session.create ~start:1.5 cfg plans in
  check (Alcotest.float 0.0) "clock starts at start" 1.5 (Session.now s);
  (match Session.create ~start:(-1.0) cfg plans with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative start accepted");
  ignore (Acc_runtime.execute s);
  check Alcotest.bool "clock advanced past start" true (Session.now s > 1.5);
  check (Alcotest.float 0.0) "start kept" 1.5 (Session.start s)

(* ---------------- plan cache ---------------- *)

let source_of_params (n, a) =
  Printf.sprintf
    {|void main() {
        int n = %d; double x[n]; double y[n]; int i;
        for (i = 0; i < n; i++) { x[i] = 0.5 * i; y[i] = 1.0; }
        #pragma acc data copyin(x[0:n]) copy(y[0:n])
        {
          #pragma acc parallel loop localaccess(x: stride(1), y: stride(1))
          for (i = 0; i < n; i++) { y[i] = y[i] + %d.0 * x[i]; }
        }
      }|}
    n a

(* A structural projection of a program plan: what "the same plan"
   must mean observably (physical identity is checked separately). *)
let plan_shape plans =
  List.map
    (fun (p : Mgacc.Kernel_plan.t) ->
      ( p.Mgacc.Kernel_plan.loop.Mgacc.Loop_info.loop_id,
        Mgacc.Kernel_plan.thread_multiplier p,
        List.map (fun (c : Mgacc.Array_config.t) -> c.Mgacc.Array_config.array)
          p.Mgacc.Kernel_plan.configs ))
    (Mgacc.Program_plan.all_plans plans)

let gen_cache_params = QCheck2.Gen.(pair (int_range 64 4096) (int_range 1 9))

let prop_cache_hit_bit_identical params =
  let src = source_of_params params in
  let cache = Plan_cache.create () in
  let e1, hit1 = Plan_cache.lookup ~name:"p.c" cache src in
  let e2, hit2 = Plan_cache.lookup ~name:"p.c" cache src in
  let fresh = Mgacc.compile (Mgacc.parse_string ~name:"p.c" src) in
  (not hit1) && hit2
  && e1 == e2 (* the entry itself is reused *)
  && e1.Plan_cache.plans == e2.Plan_cache.plans (* physically the same plan *)
  && plan_shape e1.Plan_cache.plans = plan_shape fresh
  && Plan_cache.hits cache = 1
  && Plan_cache.misses cache = 1

(* [lookup ... cache saxpy_src] must miss for each key in turn, then
   hit each one again with the entry physically reused. *)
let check_keys_separate what lookups =
  let cache = Plan_cache.create () in
  let firsts = List.map (fun lookup -> lookup cache) lookups in
  check Alcotest.bool (what ^ ": each misses") false (List.exists snd firsts);
  check Alcotest.int (what ^ ": one entry each") (List.length lookups) (Plan_cache.misses cache);
  List.iter2
    (fun lookup (e, _) ->
      let e', hit = lookup cache in
      check Alcotest.bool (what ^ ": the same key hits") true hit;
      check Alcotest.bool (what ^ ": entry reused") true (e == e'))
    lookups firsts

let test_cache_distinguishes_sources_and_options () =
  let opts = Mgacc.Kernel_plan.default_options in
  check_keys_separate "distinct sources"
    [
      (fun c -> Plan_cache.lookup ~name:"a.c" c saxpy_src);
      (fun c -> Plan_cache.lookup ~name:"b.c" c long_src);
    ];
  check_keys_separate "distinct options"
    [
      (fun c -> Plan_cache.lookup ~options:opts c saxpy_src);
      (fun c ->
        Plan_cache.lookup
          ~options:{ opts with Mgacc.Kernel_plan.enable_distribution = false }
          c saxpy_src);
    ]

let test_cache_distinguishes_machine_and_decomp () =
  (* Non-aliasing: a plan for a 2-D launch on an 8x4 fat-tree must never
     be served for a 1-D run on the desktop from the same source. *)
  let opts2d =
    { Mgacc.Kernel_plan.default_options with Mgacc.Kernel_plan.enable_decomp2d = true }
  in
  check_keys_separate "machine shape and decomposition"
    [
      (fun c -> Plan_cache.lookup c saxpy_src);
      (fun c -> Plan_cache.lookup ~machine:"fattree:8x4" c saxpy_src);
      (fun c -> Plan_cache.lookup ~machine:"nvmesh:8x4" c saxpy_src);
      (fun c -> Plan_cache.lookup ~machine:"cluster:2x2" c saxpy_src);
      (fun c -> Plan_cache.lookup ~machine:"fattree:8x4" ~options:opts2d c saxpy_src);
    ]

let test_cache_measurements () =
  let cache = Plan_cache.create () in
  let e, _ = Plan_cache.lookup ~name:"a.c" cache saxpy_src in
  check Alcotest.bool "no profile yet" true
    (e.Plan_cache.measured_seconds = None && e.Plan_cache.footprint_bytes = None);
  Plan_cache.record_measurement e ~seconds:0.25 ~footprint_bytes:4096;
  check Alcotest.bool "profile stored" true
    (e.Plan_cache.measured_seconds = Some 0.25 && e.Plan_cache.footprint_bytes = Some 4096);
  Plan_cache.record_measurement e ~seconds:0.5 ~footprint_bytes:0;
  check Alcotest.bool "non-positive footprint keeps previous" true
    (e.Plan_cache.measured_seconds = Some 0.5 && e.Plan_cache.footprint_bytes = Some 4096)

(* ---------------- darray spill / restore ---------------- *)

let test_spill_then_restore_value_identical () =
  let cfg = Rt_config.make ~num_gpus:2 (Machine.desktop ()) in
  let host = View.of_float_array ~name:"x" [| 1.0; 2.0; 3.0; 4.0 |] in
  let da = Darray.create cfg ~name:"x" ~host in
  let _ = Darray.ensure_replicated cfg da ~dirty_tracking:false in
  (* The device computes new values (all replicas agree, as after a
     reconciled launch)... *)
  let r = Darray.replica_of da in
  Array.iter
    (fun buf ->
      let d = Memory.float_data buf in
      Array.iteri (fun i _ -> d.(i) <- 10.0 *. float_of_int (i + 1)) d)
    r.Darray.bufs;
  Darray.mark_device_written da;
  (* What the darray pins shows in its devices' user memory. *)
  let pinned () =
    Array.fold_left
      (fun acc d -> acc + Memory.used_class d.Mgacc_gpusim.Device.memory `User)
      0 cfg.Rt_config.machine.Machine.devices
  in
  check Alcotest.bool "device bytes pinned" true (pinned () > 0);
  (* ...the fleet evicts it: dirty data must land in the host view. *)
  let xfers = Darray.spill_to_host cfg da in
  check Alcotest.bool "spill ships something" true (xfers <> []);
  List.iter
    (fun (x : Darray.xfer) ->
      check Alcotest.bool "spill tag" true (Filename.check_suffix x.Darray.tag ":spill"))
    xfers;
  check Alcotest.bool "device storage freed" true (da.Darray.state = Darray.Unallocated);
  check Alcotest.int "nothing left pinned" 0 (pinned ());
  check
    (Alcotest.array (Alcotest.float 0.0))
    "host holds the device values bit-for-bit"
    [| 10.0; 20.0; 30.0; 40.0 |]
    (View.snapshot_f host);
  (* A later touch transparently reloads: values identical again. *)
  let _ = Darray.ensure_replicated cfg da ~dirty_tracking:false in
  let r2 = Darray.replica_of da in
  Array.iter
    (fun buf ->
      check
        (Alcotest.array (Alcotest.float 0.0))
        "restored replica identical" [| 10.0; 20.0; 30.0; 40.0 |]
        (Memory.float_data buf))
    r2.Darray.bufs

let test_session_spill_all () =
  let program = Mgacc.parse_string ~name:"saxpy.c" saxpy_src in
  let plans = Mgacc.compile program in
  let cfg = Rt_config.make ~num_gpus:2 ~keep_resident:true (Machine.desktop ()) in
  let s = Session.create cfg plans in
  ignore (Acc_runtime.execute s);
  check Alcotest.bool "warm pool resident after keep_resident finish" true
    (Session.resident_bytes s > 0);
  let _ = Session.spill_all s in
  check Alcotest.int "everything evicted" 0 (Session.resident_bytes s)

(* ---------------- admission ledger ---------------- *)

let no_spill () = []

let test_admission_basic () =
  let a = Admission.create ~budget:100 in
  (match Admission.admit a ~job:1 ~bytes:60 with
  | Admission.Admitted [] -> ()
  | _ -> Alcotest.fail "job 1 should be admitted without evictions");
  check Alcotest.int "active" 60 (Admission.active_bytes a);
  (match Admission.admit a ~job:2 ~bytes:60 with
  | Admission.Must_wait -> ()
  | _ -> Alcotest.fail "job 2 must wait behind job 1");
  (match Admission.admit a ~job:3 ~bytes:200 with
  | Admission.Impossible -> ()
  | _ -> Alcotest.fail "a job above the whole budget is impossible");
  Admission.release a ~job:1 ~warm:None;
  check Alcotest.int "freed" 100 (Admission.free_bytes a);
  (match Admission.admit a ~job:2 ~bytes:60 with
  | Admission.Admitted [] -> ()
  | _ -> Alcotest.fail "job 2 fits after the release");
  match Admission.release a ~job:99 ~warm:None with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "releasing a non-active job should raise"

let test_admission_warm_eviction () =
  let a = Admission.create ~budget:100 in
  let spilled = ref false in
  let dirty_spill () =
    spilled := true;
    [ { Darray.dir = Mgacc_gpusim.Fabric.D2h 0; bytes = 17; tag = "x:spill" } ]
  in
  (match Admission.admit a ~job:1 ~bytes:70 with
  | Admission.Admitted [] -> ()
  | _ -> Alcotest.fail "admit job 1");
  Admission.release a ~job:1 ~warm:(Some dirty_spill);
  check Alcotest.int "warm pool holds the reservation" 70 (Admission.warm_bytes a);
  check Alcotest.int "warm entry counted" 1 (Admission.warm_count a);
  check Alcotest.bool "spill is lazy" false !spilled;
  (* A newcomer that fits beside the pool does not evict it. *)
  (match Admission.admit a ~job:2 ~bytes:20 with
  | Admission.Admitted [] -> ()
  | _ -> Alcotest.fail "job 2 fits without eviction");
  (* One that does not fit evicts oldest-first and inherits the spill. *)
  (match Admission.admit a ~job:3 ~bytes:50 with
  | Admission.Admitted [ x ] ->
      check Alcotest.bool "spill thunk ran" true !spilled;
      check Alcotest.int "spill bytes surfaced" 17 x.Darray.bytes
  | _ -> Alcotest.fail "job 3 should evict the warm pool");
  check Alcotest.int "one eviction" 1 (Admission.evictions a);
  check Alcotest.int "dirty bytes accounted" 17 (Admission.spilled_bytes a);
  check Alcotest.int "no warm pools left" 0 (Admission.warm_count a)

let test_admission_clean_eviction_is_free () =
  let a = Admission.create ~budget:100 in
  (match Admission.admit a ~job:1 ~bytes:90 with
  | Admission.Admitted [] -> ()
  | _ -> Alcotest.fail "admit job 1");
  Admission.release a ~job:1 ~warm:(Some no_spill);
  (match Admission.admit a ~job:2 ~bytes:50 with
  | Admission.Admitted [] -> ()
  | _ -> Alcotest.fail "clean eviction ships nothing");
  check Alcotest.int "eviction still counted" 1 (Admission.evictions a);
  check Alcotest.int "but no dirty bytes" 0 (Admission.spilled_bytes a)

(* ---------------- the fleet loop ---------------- *)

(* A job's queueing delay: admitted minus submitted. *)
let wait_of (r : Fleet.job_result) = r.Fleet.admit_time -. r.Fleet.spec.Job.submit

let test_single_job_matches_direct_run () =
  let config = Fleet.configure ~keep_warm:false (cluster ()) in
  let outcome = Fleet.run config [ job ~name:"saxpy" 0 0.0 ] in
  let direct_machine = cluster () in
  let _, direct =
    Mgacc.run_acc
      ~config:(Rt_config.make ~num_gpus:4 direct_machine)
      (Mgacc.parse_string ~name:"saxpy" saxpy_src)
  in
  match outcome.Fleet.jobs with
  | [ r ] ->
      check Alcotest.bool "no queueing for a lone job" true (wait_of r = 0.0);
      let normalized = { r.Fleet.report with Report.variant = direct.Report.variant } in
      check Alcotest.bool "report bit-identical to the direct runtime" true (normalized = direct)
  | _ -> Alcotest.fail "expected exactly one job result"

let test_fleet_outcome_shape () =
  let config = Fleet.configure ~policy:Fleet.Fifo (cluster ()) in
  let jobs =
    [
      job ~tenant:"alice" ~name:"j0" 0 0.0;
      job ~tenant:"bob" ~name:"j1" 1 1e-6;
      job ~tenant:"alice" ~name:"j2" 2 2e-6;
    ]
  in
  let o = Fleet.run config jobs in
  check Alcotest.int "all jobs completed" 3 o.Fleet.stats.Fleet.job_count;
  check Alcotest.int "one compile, two cache hits" 2 o.Fleet.stats.Fleet.cache_hits;
  check Alcotest.int "one miss" 1 o.Fleet.stats.Fleet.cache_misses;
  List.iter
    (fun r ->
      check Alcotest.bool "wait nonnegative" true (wait_of r >= 0.0);
      check Alcotest.bool "finish after admit" true (r.Fleet.finish_time >= r.Fleet.admit_time);
      check Alcotest.bool "queue wait lands in the report" true
        (Float.abs (r.Fleet.report.Report.queue_seconds -. wait_of r) < 1e-12))
    o.Fleet.jobs;
  check Alcotest.int "two tenants" 2 (List.length o.Fleet.tenants);
  check Alcotest.bool "fairness in (0, 1]" true
    (o.Fleet.stats.Fleet.fairness > 0.0 && o.Fleet.stats.Fleet.fairness <= 1.0 +. 1e-12);
  check Alcotest.bool "throughput positive" true (o.Fleet.stats.Fleet.throughput > 0.0);
  (* Determinism: replaying the same trace reproduces the outcome. *)
  let o2 = Fleet.run (Fleet.configure ~policy:Fleet.Fifo (cluster ())) jobs in
  check Alcotest.bool "replay is bit-identical" true
    (Fleet.to_json o = Fleet.to_json o2)

let test_sjf_reorders_backlog () =
  let cache = Plan_cache.create () in
  (* Warm the cache so SJF ranks by measured durations. *)
  ignore
    (Fleet.run ~cache
       (Fleet.configure (cluster ()))
       [ job ~name:"long" ~src:long_src 0 0.0; job ~name:"short" ~src:saxpy_src 1 0.0 ]);
  let burst =
    [
      job ~tenant:"a" ~name:"long" ~src:long_src 0 0.0;
      job ~tenant:"b" ~name:"long" ~src:long_src 1 1e-6;
      job ~tenant:"c" ~name:"short" ~src:saxpy_src 2 2e-6;
    ]
  in
  let fifo = Fleet.run ~cache (Fleet.configure ~policy:Fleet.Fifo (cluster ())) burst in
  let sjf = Fleet.run ~cache (Fleet.configure ~policy:Fleet.Sjf (cluster ())) burst in
  check Alcotest.bool "sjf cuts mean wait on a long/short backlog" true
    (sjf.Fleet.stats.Fleet.mean_wait < fifo.Fleet.stats.Fleet.mean_wait);
  let admit o id =
    (List.find (fun r -> r.Fleet.spec.Job.id = id) o.Fleet.jobs).Fleet.admit_time
  in
  check Alcotest.bool "fifo keeps submit order" true (admit fifo 1 < admit fifo 2);
  check Alcotest.bool "sjf admits the short job first" true (admit sjf 2 < admit sjf 1)

let test_fair_share_interleaves_tenants () =
  let burst =
    [
      job ~tenant:"a" ~name:"j0" 0 0.0;
      job ~tenant:"a" ~name:"j1" 1 1e-6;
      job ~tenant:"b" ~name:"j2" 2 2e-6;
    ]
  in
  let fifo = Fleet.run (Fleet.configure ~policy:Fleet.Fifo (cluster ())) burst in
  let fair = Fleet.run (Fleet.configure ~policy:Fleet.Fair (cluster ())) burst in
  let admit o id =
    (List.find (fun r -> r.Fleet.spec.Job.id = id) o.Fleet.jobs).Fleet.admit_time
  in
  check Alcotest.bool "fifo runs tenant a's backlog first" true (admit fifo 1 < admit fifo 2);
  check Alcotest.bool "fair lets the idle tenant in first" true (admit fair 2 < admit fair 1)

let test_warm_pool_eviction_under_pressure () =
  let cache = Plan_cache.create () in
  (* Measure the program's footprint once. *)
  ignore (Fleet.run ~cache (Fleet.configure (cluster ())) [ job 0 0.0 ]);
  let entry, _ = Fleet.lookup (Fleet.configure (cluster ())) cache ~name:"job" saxpy_src in
  let footprint =
    match entry.Plan_cache.footprint_bytes with
    | Some b -> b
    | None -> Alcotest.fail "fleet run should record a footprint"
  in
  check Alcotest.bool "footprint measured" true (footprint > 0);
  (* A budget that fits one warm pool plus one active job, but not two
     pools: each admission beyond the first evicts the previous pool. *)
  let config = Fleet.configure ~mem_budget:(2 * footprint) (cluster ()) in
  let o = Fleet.run ~cache config [ job 0 0.0; job 1 1e-6; job 2 2e-6 ] in
  check Alcotest.bool "pressure forced evictions" true (o.Fleet.stats.Fleet.evictions > 0);
  check Alcotest.int "all jobs still completed" 3 o.Fleet.stats.Fleet.job_count

(* Every program the fleet bench replays (md, kmeans, bfs, spmv,
   montecarlo; tiny inputs here) must leave a positive footprint after its
   warm-up run, read back through the key [run] itself uses. A lookup
   without the machine shape misses and sees a fresh, unmeasured entry:
   that is how the bench once sized its budget from the 16 MiB default. *)
let test_warmup_records_footprints () =
  let open Mgacc_apps in
  let sources =
    List.map
      (fun (name, app) -> (name, app.App_common.source))
      [
        ("md", Md.app { Md.atoms = 256; max_neighbors = 8; seed = 42 });
        ( "kmeans",
          Kmeans.app
            { Kmeans.points = 400; features = 4; clusters = 3; iterations = 2; seed = 11 } );
        ("bfs", Bfs.app { Bfs.nodes = 600; max_degree = 6; seed = 5 });
        ("spmv", Spmv.app { Spmv.rows = 500; width = 6; iterations = 2; seed = 19 });
        ("montecarlo", Montecarlo.app { Montecarlo.paths = 500; steps = 4; bins = 8; seed = 29 });
      ]
  in
  let cache = Plan_cache.create () in
  List.iter
    (fun (name, source) ->
      let config = Fleet.configure ~keep_warm:true (cluster ()) in
      ignore (Fleet.run ~cache config [ job ~name ~src:source 0 0.0 ]);
      let entry, hit = Fleet.lookup config cache ~name source in
      check Alcotest.bool (name ^ ": warm-up plan found") true hit;
      match entry.Plan_cache.footprint_bytes with
      | Some b when b > 0 -> ()
      | _ -> Alcotest.failf "%s: no positive footprint recorded after warm-up" name)
    sources

let test_deadlock_on_impossible_footprint () =
  let config =
    Fleet.configure ~mem_budget:1024 ~default_footprint:(1024 * 1024) (cluster ())
  in
  match Fleet.run config [ job 7 0.0 ] with
  | exception Fleet.Deadlock { job = id; reason } ->
      check Alcotest.int "deadlock names the job" 7 id;
      check Alcotest.bool "reason mentions the budget" true
        (String.length reason > 0)
  | _ -> Alcotest.fail "an over-budget job must deadlock loudly"

let test_watchdog_fires_on_stuck_queue () =
  let config = Fleet.configure ~watchdog_seconds:1e-9 (cluster ()) in
  let jobs = [ job 0 0.0; job 1 0.0; job 2 0.0 ] in
  match Fleet.run config jobs with
  | exception Fleet.Deadlock { job = id; _ } ->
      check Alcotest.bool "watchdog names a queued job" true (id = 1 || id = 2)
  | _ -> Alcotest.fail "a microscopic watchdog must fire on any backlog"

(* ---------------- job traces ---------------- *)

let test_load_trace () =
  let dir = Filename.temp_file "fleet" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write path contents =
    let oc = open_out (Filename.concat dir path) in
    output_string oc contents;
    close_out oc
  in
  write "p.c" saxpy_src;
  write "trace.txt" "# a comment\n\n0.0 alice p.c\n0.5 bob p.c\n";
  let jobs = Job.load_trace (Filename.concat dir "trace.txt") in
  (match jobs with
  | [ a; b ] ->
      check Alcotest.int "ids in file order" 0 a.Job.id;
      check Alcotest.string "tenant" "alice" a.Job.tenant;
      check Alcotest.string "tenant" "bob" b.Job.tenant;
      check (Alcotest.float 0.0) "submit" 0.5 b.Job.submit;
      check Alcotest.string "source read from disk" saxpy_src a.Job.source
  | _ -> Alcotest.failf "expected 2 jobs, got %d" (List.length jobs));
  write "bad.txt" "not-a-number alice p.c\n";
  (match Job.load_trace (Filename.concat dir "bad.txt") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "malformed trace line should raise");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let suite =
  [
    tc "back-to-back runs on one machine match fresh runs" test_back_to_back_machine_reuse;
    tc "sessions start at their admission instant" test_session_start_offsets_clock;
    qtest ~count:25 "plan cache: hit is bit-identical to fresh compile" gen_cache_params
      prop_cache_hit_bit_identical;
    tc "plan cache keys on source and options" test_cache_distinguishes_sources_and_options;
    tc "plan cache keys on machine shape and decomposition"
      test_cache_distinguishes_machine_and_decomp;
    tc "plan cache execution profiles" test_cache_measurements;
    tc "spilled-then-restored darray is value-identical" test_spill_then_restore_value_identical;
    tc "session spill_all empties the warm pool" test_session_spill_all;
    tc "admission: budget, waiting, impossibility" test_admission_basic;
    tc "admission: warm eviction runs the spill" test_admission_warm_eviction;
    tc "admission: clean eviction ships nothing" test_admission_clean_eviction_is_free;
    tc "one fleet job reproduces the direct runtime" test_single_job_matches_direct_run;
    tc "fleet outcome: metrics, tenants, determinism" test_fleet_outcome_shape;
    tc "sjf reorders a long/short backlog" test_sjf_reorders_backlog;
    tc "fair-share interleaves tenants" test_fair_share_interleaves_tenants;
    tc "memory pressure evicts warm pools" test_warm_pool_eviction_under_pressure;
    tc "warm-up records every bench program's footprint" test_warmup_records_footprints;
    tc "over-budget job deadlocks loudly" test_deadlock_on_impossible_footprint;
    tc "simulated-time watchdog fires" test_watchdog_fires_on_stuck_queue;
  ]
