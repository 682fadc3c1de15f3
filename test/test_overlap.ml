(* Tests for the dependency-driven overlap engine: the Event timelines it
   is built on, the off-mode identity guarantee, numerical equivalence of
   overlapped runs, and the communication/computation win it exists for. *)

module Event = Mgacc_gpusim.Event
open Mgacc_apps

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---------------- Event timelines ---------------- *)

(* The latest event of GPUs [0, n), whatever the host's. *)
let gpu_join e n =
  List.fold_left (fun acc g -> Float.max acc (Event.gpu_ready e g)) 0.0 (List.init n Fun.id)

let test_event_max_join () =
  let e = Event.create ~num_gpus:3 in
  List.iter
    (fun g -> check (Alcotest.float 0.0) "starts at zero" 0.0 (Event.gpu_ready e g))
    [ 0; 1; 2 ];
  Event.record e 1 5.0;
  check (Alcotest.float 0.0) "recorded" 5.0 (Event.gpu_ready e 1);
  Event.record e 1 3.0;
  check (Alcotest.float 0.0) "earlier record is a no-op" 5.0 (Event.gpu_ready e 1);
  check (Alcotest.float 0.0) "others untouched" 0.0 (Event.gpu_ready e 0);
  Event.record e 0 7.0;
  check (Alcotest.float 0.0) "gpu join" 7.0 (gpu_join e 3);
  Event.record_host e 9.0;
  check (Alcotest.float 0.0) "gpu join ignores host" 7.0 (gpu_join e 3);
  check (Alcotest.float 0.0) "host dominates join" 9.0 (Event.barrier e)

let test_event_barrier_and_reset () =
  let e = Event.create ~num_gpus:2 in
  Event.record e 0 2.0;
  Event.record e 1 4.0;
  Event.record_host e 1.0;
  let t = Event.barrier e in
  check (Alcotest.float 0.0) "barrier is the join" 4.0 t;
  check (Alcotest.float 0.0) "gpu0 collapsed" 4.0 (Event.gpu_ready e 0);
  Event.reset e;
  check (Alcotest.float 0.0) "reset gpu" 0.0 (Event.gpu_ready e 1);
  (* With every GPU at 0, the join is the host's cursor. *)
  check (Alcotest.float 0.0) "reset host" 0.0 (Event.barrier e)

(* ---------------- Whole-application runs ---------------- *)

let desktop () = Mgacc.Machine.desktop ()
let bfs_small = Bfs.app { Bfs.nodes = 12000; max_degree = 10; seed = 5 }
let kmeans_small = Kmeans.app { Kmeans.points = 4000; features = 12; clusters = 5; iterations = 6; seed = 11 }
let md_small = Md.app { Md.atoms = 400; max_neighbors = 8; seed = 17 }

let run app ~overlap =
  App_common.proposal (Mgacc.Rt_config.make ~overlap ~num_gpus:2 (desktop ())) app

let test_off_mode_is_the_default () =
  (* [--overlap off] must be byte-for-byte the pre-engine barrier path:
     a run with the flag off matches a run with no flag at all, down to
     the exact simulated times. *)
  let _, r_default =
    App_common.proposal (Mgacc.Rt_config.make ~num_gpus:2 (desktop ())) bfs_small
  in
  let _, r_off = run bfs_small ~overlap:false in
  check Alcotest.bool "identical total" true
    (Float.equal r_default.Mgacc.Report.total_time r_off.Mgacc.Report.total_time);
  check Alcotest.bool "identical kernel time" true
    (Float.equal r_default.Mgacc.Report.kernel_time r_off.Mgacc.Report.kernel_time);
  check Alcotest.int "identical traffic" r_default.Mgacc.Report.gpu_gpu_bytes
    r_off.Mgacc.Report.gpu_gpu_bytes;
  check (Alcotest.float 0.0) "off mode hides nothing" 0.0 r_off.Mgacc.Report.hidden_seconds

let test_overlap_results_identical () =
  (* Overlap reorders the simulated timeline only; every functional merge
     is unchanged, so results must equal the sequential reference exactly
     for all three communication patterns (dirty chunks + replays in bfs,
     reductions in kmeans, halos in md). *)
  List.iter
    (fun app ->
      let reference = App_common.sequential app in
      let env, _ = run app ~overlap:true in
      App_common.check_exn app ~against:reference env)
    [ bfs_small; kmeans_small; md_small ]

let test_overlap_traffic_unchanged () =
  (* Same bytes move either way; only their timing differs. *)
  let _, off = run bfs_small ~overlap:false in
  let _, on_ = run bfs_small ~overlap:true in
  check Alcotest.int "gpu-gpu bytes" off.Mgacc.Report.gpu_gpu_bytes on_.Mgacc.Report.gpu_gpu_bytes;
  check Alcotest.int "cpu-gpu bytes" off.Mgacc.Report.cpu_gpu_bytes on_.Mgacc.Report.cpu_gpu_bytes;
  check Alcotest.int "launches" off.Mgacc.Report.launches on_.Mgacc.Report.launches

let test_overlap_wins_on_comm_bound_app () =
  (* The acceptance bar: at least 10% lower simulated total on a
     communication-bound app. BFS's irregular dirty-chunk reconciliation
     is the heavy case; the engine also reports the hidden seconds and
     the reload-skip prefetch hits that produce the win. *)
  let _, off = run bfs_small ~overlap:false in
  let _, on_ = run bfs_small ~overlap:true in
  if on_.Mgacc.Report.total_time > 0.9 *. off.Mgacc.Report.total_time then
    Alcotest.failf "overlap won only %.1f%% (%.6fs -> %.6fs)"
      (100.0 *. (1.0 -. (on_.Mgacc.Report.total_time /. off.Mgacc.Report.total_time)))
      off.Mgacc.Report.total_time on_.Mgacc.Report.total_time;
  check Alcotest.bool "hidden time reported" true (on_.Mgacc.Report.hidden_seconds > 0.0);
  check Alcotest.bool "prefetch hits counted" true (on_.Mgacc.Report.prefetch_hits > 0)

let test_overlap_never_slower_than_serial_model () =
  (* The makespan accounting must keep total = sum of exposed categories,
     and overlapping can only hide time relative to its own exposed sum:
     total + hidden >= total, and every category stays non-negative. *)
  List.iter
    (fun app ->
      let _, r = run app ~overlap:true in
      let cats =
        [
          r.Mgacc.Report.kernel_time;
          r.Mgacc.Report.cpu_gpu_time;
          r.Mgacc.Report.gpu_gpu_time;
          r.Mgacc.Report.overhead_time;
        ]
      in
      List.iter (fun c -> check Alcotest.bool "category >= 0" true (c >= 0.0)) cats;
      check Alcotest.bool "hidden >= 0" true (r.Mgacc.Report.hidden_seconds >= 0.0);
      let sum = List.fold_left ( +. ) 0.0 cats in
      check Alcotest.bool "categories sum to the makespan" true
        (Float.abs (sum -. r.Mgacc.Report.total_time) <= 1e-9 *. Float.max 1.0 sum))
    [ bfs_small; kmeans_small; md_small ]

let suite =
  [
    tc "event: record is a max-join" test_event_max_join;
    tc "event: barrier collapses, reset restarts" test_event_barrier_and_reset;
    tc "overlap: off mode equals the default run" test_off_mode_is_the_default;
    tc "overlap: results match the sequential reference" test_overlap_results_identical;
    tc "overlap: traffic volume unchanged" test_overlap_traffic_unchanged;
    tc "overlap: >=10% win on a comm-bound app" test_overlap_wins_on_comm_bound_app;
    tc "overlap: accounting invariants" test_overlap_never_slower_than_serial_model;
  ]
