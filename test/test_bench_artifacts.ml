(* Schema and claim checks of the committed BENCH_*.json benchmark
   artifacts.

   The bench harness (bench/main.ml) writes one JSON file per tracked
   experiment through [Mgacc_util.Json]; these are committed so CI can
   trend them. Every artifact must parse and carry the fields its
   consumers read, so a stale or hand-mangled artifact fails
   [dune runtest]. The five mode sweeps (overlap, coherence, collective,
   fusion, scale) share one row schema, checked by [rows]: one row per
   run, naming its app, machine, GPUs and every mode switch by its
   runtime spelling, then the [Report.metrics] and [results_match]. Each
   acceptance bar is a named predicate that looks rows up by (app,
   machine, switch settings). *)

module Json = Mgacc_util.Json
module Rt_config = Mgacc.Rt_config

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---------------- accessors ---------------- *)

let member file key j =
  match Json.member key j with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing key %S" file key

let get kind extract file key j =
  match extract (member file key j) with
  | Some v -> v
  | None -> Alcotest.failf "%s: %S is not a %s" file key kind

let str = get "string" (function Json.Str s -> Some s | _ -> None)
let num = get "number" (function Json.Num f -> Some f | _ -> None)
let boolean = get "bool" (function Json.Bool b -> Some b | _ -> None)
let arr = get "array" (function Json.Arr l -> Some l | _ -> None)

(* ---------------- artifact discovery ---------------- *)

(* Tests execute inside the dune sandbox; the artifacts are declared as
   test deps, so walking up from the cwd finds the dune-copied versions
   (and running the binary from a source checkout finds the committed
   ones). *)
let find_artifact_dir () =
  let rec walk dir depth =
    if depth > 8 then None
    else if Sys.file_exists (Filename.concat dir "BENCH_overlap.json") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else walk parent (depth + 1)
  in
  walk (Sys.getcwd ()) 0

let load name =
  match find_artifact_dir () with
  | None -> Alcotest.failf "no BENCH_*.json found walking up from %s" (Sys.getcwd ())
  | Some dir -> (
      let path = Filename.concat dir name in
      if not (Sys.file_exists path) then Alcotest.failf "missing artifact %s in %s" name dir;
      match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | j -> (name, j)
      | exception Json.Parse_error e -> Alcotest.failf "%s: %s" name e)

(* The fleet and sim artifacts record the non-runtime settings that
   produced them, so a trend reader never has to guess. *)
let check_flags file j keys =
  match member file "flags" j with
  | Json.Obj kvs when kvs <> [] ->
      List.iter
        (fun k -> if not (List.mem_assoc k kvs) then Alcotest.failf "%s: flags missing %S" file k)
        keys
  | _ -> Alcotest.failf "%s: \"flags\" is not a non-empty object" file

(* ---------------- the sweep row schema ---------------- *)

let switch_names = List.map (fun (s : Rt_config.switch) -> s.Rt_config.name) Rt_config.switches
let metric_keys = List.map fst Mgacc.Report.metrics
let row_keys = [ "app"; "machine"; "gpus" ] @ switch_names @ metric_keys @ [ "results_match" ]

(* The one row check of every sweep artifact: a declared scale, a
   non-empty [runs] list, and rows with exactly [row_keys] in order, at
   least [min_gpus] GPUs, every switch spelled as the runtime spells it,
   a positive time, non-negative counters, and results that match the
   sequential reference. [sweeps] lists the settings the artifact
   compares; every other switch must sit at its default in every row. *)
let rows ~min_gpus ~sweeps name =
  let file, j = load name in
  check Alcotest.bool "scale named" true (str file "scale" j <> "");
  let runs = arr file "runs" j in
  check Alcotest.bool "runs non-empty" true (runs <> []);
  List.iter
    (fun run ->
      (match run with
      | Json.Obj kvs when List.map fst kvs = row_keys -> ()
      | _ -> Alcotest.failf "%s: a row's keys are not %s" file (String.concat ", " row_keys));
      ignore (str file "app" run);
      ignore (str file "machine" run);
      check Alcotest.bool "gpus" true (num file "gpus" run >= min_gpus);
      List.iter
        (fun (s : Rt_config.switch) ->
          let default = [ List.hd s.Rt_config.spellings ] in
          let swept = Option.value ~default (List.assoc_opt s.Rt_config.name sweeps) in
          if not (List.mem (str file s.Rt_config.name run) swept) then
            Alcotest.failf "%s: %s %S outside the sweep's %s" file s.Rt_config.name
              (str file s.Rt_config.name run) (String.concat "|" swept))
        Rt_config.switches;
      check Alcotest.bool "time > 0" true (num file "seconds" run > 0.0);
      List.iter (fun k -> check Alcotest.bool (k ^ " >= 0") true (num file k run >= 0.0)) metric_keys;
      check Alcotest.bool "results match" true (boolean file "results_match" run))
    runs;
  (file, runs)

(* The unique row of [app] on [machine] whose switches carry [settings]. *)
let find (file, runs) ~app ~machine settings =
  let matches run =
    str file "app" run = app
    && str file "machine" run = machine
    && List.for_all (fun (k, v) -> str file k run = v) settings
  in
  match List.filter matches runs with
  | [ run ] -> run
  | found ->
      Alcotest.failf "%s: %d rows for %s on %s %s" file (List.length found) app machine
        (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) settings))

(* Every row with switch [name] at [a] (and string fields as in [only]),
   paired with its twin at [b]: the row of the same app, machine and
   other settings. A row without a twin fails: the artifact must hold
   both sides of each comparison. *)
let twins ?(only = []) (file, runs) name a b =
  let settings run = List.map (fun k -> (k, str file k run)) (List.filter (( <> ) name) switch_names) in
  List.filter_map
    (fun run ->
      if str file name run <> a || List.exists (fun (k, v) -> str file k run <> v) only then None
      else
        let app = str file "app" run and machine = str file "machine" run in
        Some (run, find (file, runs) ~app ~machine ((name, b) :: settings run)))
    runs

let coh_bytes file run = num file "coh_shipped_bytes" run +. num file "coh_pulled_bytes" run

(* ---------------- the sweep artifacts ---------------- *)

let test_overlap_artifact () =
  let t = rows ~min_gpus:2.0 ~sweeps:[ ("overlap", [ "off"; "on" ]) ] "BENCH_overlap.json" in
  check Alcotest.bool "barrier and overlap sides" true (twins t "overlap" "off" "on" <> [])

let test_coherence_artifact () =
  let ((file, _) as t) =
    rows ~min_gpus:2.0
      ~sweeps:[ ("coherence", [ "eager"; "lazy" ]); ("overlap", [ "off"; "on" ]) ]
      "BENCH_coherence.json"
  in
  let pairs = twins t "coherence" "eager" "lazy" in
  (* Lazy never ships more coherence traffic than eager. *)
  List.iter
    (fun (eager, lz) ->
      check Alcotest.bool "lazy never ships more" true (coh_bytes file lz <= coh_bytes file eager))
    pairs;
  (* Acceptance bar: a >= 30% cut on at least two of kmeans/bfs/spmv at
     4 GPUs. *)
  let big_cuts_at_4 =
    List.filter_map
      (fun (eager, lz) ->
        let app = str file "app" eager in
        if num file "gpus" eager = 4.0 && List.mem app [ "kmeans"; "bfs"; "spmv" ]
           && coh_bytes file lz <= 0.7 *. coh_bytes file eager
        then Some app
        else None)
      pairs
  in
  if List.length big_cuts_at_4 < 2 then
    Alcotest.failf "%s: <2 of kmeans/bfs/spmv cut >=30%% at 4 GPUs (got: %s)" file
      (String.concat ", " big_cuts_at_4);
  (* Acceptance bar: under lazy coherence, kmeans is no slower under the
     overlap engine than under barriers. *)
  let kmeans_overlap = twins ~only:[ ("app", "kmeans"); ("coherence", "lazy") ] t "overlap" "off" "on" in
  check Alcotest.bool "kmeans overlap runs present" true (kmeans_overlap <> []);
  List.iter
    (fun (barrier, overlap) ->
      let b = num file "seconds" barrier and o = num file "seconds" overlap in
      if o > b *. 1.0005 then
        Alcotest.failf "%s: kmeans overlap slower than barrier (%.9gs vs %.9gs) on %s" file o b
          (str file "machine" overlap))
    kmeans_overlap

let test_collective_artifact () =
  let ((file, _) as t) =
    rows ~min_gpus:2.0
      ~sweeps:[ ("coherence", [ "eager"; "lazy" ]); ("collective", [ "direct"; "auto" ]) ]
      "BENCH_collective.json"
  in
  let pairs = twins t "collective" "direct" "auto" in
  (* The planner reshapes routes; it must never add wire traffic. *)
  List.iter
    (fun (direct, auto) ->
      check Alcotest.bool "auto never adds wire bytes" true
        (num file "wire_bytes" auto <= num file "wire_bytes" direct))
    pairs;
  (* Acceptance bar: on the 4-GPU cluster at least one replica-heavy app
     puts strictly fewer bytes on the inter-node wire under auto. *)
  let cluster_win (direct, auto) =
    num file "gpus" direct = 4.0
    && List.mem (str file "app" direct) [ "kmeans"; "bfs"; "spmv" ]
    && num file "wire_bytes" auto < num file "wire_bytes" direct
  in
  if not (List.exists cluster_win pairs) then
    Alcotest.failf "%s: auto beat direct on wire bytes for none of kmeans/bfs/spmv at 4 GPUs" file

let test_fusion_artifact () =
  let ((file, runs) as t) = rows ~min_gpus:2.0 ~sweeps:[ ("fuse", [ "off"; "on" ]) ] "BENCH_fusion.json" in
  let pairs = twins t "fuse" "off" "on" in
  (* Acceptance bar: on the 4-GPU cluster both fusion-friendly apps are
     strictly faster AND ship strictly fewer coherence bytes fused. *)
  List.iter
    (fun app ->
      let cluster_win (off, on) =
        str file "app" off = app
        && num file "gpus" off = 4.0
        && num file "seconds" on < num file "seconds" off
        && coh_bytes file on < coh_bytes file off
      in
      if not (List.exists cluster_win pairs) then
        Alcotest.failf "%s: %s not strictly better fused on seconds and coh bytes at 4 GPUs" file app)
    [ "md"; "kmeans" ];
  (* Acceptance bar: at least one run contracts a temporary. *)
  if not (List.exists (fun run -> num file "contracted_arrays" run >= 1.0) runs) then
    Alcotest.failf "%s: no run demonstrates temporary contraction" file;
  (* Control: bfs has no adjacent compatible loops, so its fused and
     unfused rows are equal on every metric. *)
  let bfs = List.filter (fun (off, _) -> str file "app" off = "bfs") pairs in
  check Alcotest.bool "bfs control rows present" true (bfs <> []);
  List.iter
    (fun (off, on) ->
      List.iter
        (fun k ->
          if num file k off <> num file k on then
            Alcotest.failf "%s: bfs %s differs fused (%.9g vs %.9g) on %s" file k (num file k on)
              (num file k off) (str file "machine" off))
        metric_keys)
    bfs

let test_scale_artifact () =
  let ((file, runs) as t) =
    rows ~min_gpus:4.0
      ~sweeps:[ ("decomp", [ "1d"; "2d" ]); ("collective", [ "direct"; "ring" ]) ]
      "BENCH_scale.json"
  in
  ignore (twins t "decomp" "1d" "2d");
  ignore (twins t "collective" "direct" "ring");
  (* The tracked sweep covers the scale-out story: 4, 16 and 64 GPUs. *)
  List.iter
    (fun g ->
      if not (List.exists (fun run -> num file "gpus" run = g) runs) then
        Alcotest.failf "%s: no runs at %g GPUs (the sweep is 4/16/64)" file g)
    [ 4.0; 16.0; 64.0 ];
  (* Per-GPU halo bytes, with the integer division the bench used to
     print them. *)
  let halo run = int_of_float (num file "gpu_gpu_bytes" run) / int_of_float (num file "gpus" run) in
  (* Acceptance bar 1: from 16 GPUs up, the 2-D tiles move strictly fewer
     per-GPU halo bytes than 1-D rows on the stencil (perimeter vs full
     row width), and the gap must hold at 64 too. *)
  List.iter
    (fun machine ->
      let jacobi decomp = find t ~app:"jacobi" ~machine [ ("decomp", decomp); ("collective", "direct") ] in
      let d1 = halo (jacobi "1d") and d2 = halo (jacobi "2d") in
      if d2 >= d1 then Alcotest.failf "%s: 2-D halo/GPU %dB not below 1-D %dB on %s" file d2 d1 machine)
    [ "fattree:4x4"; "fattree:16x4" ];
  (* Acceptance bar 2: at 64 GPUs the ring schedule puts strictly fewer
     bytes on the inter-node wire than the direct star for the
     collective-heavy app, and the planner actually built rings. *)
  let spmv collective =
    find t ~app:"spmv" ~machine:"fattree:16x4" [ ("decomp", "1d"); ("collective", collective) ]
  in
  let star = spmv "direct" and ring = spmv "ring" in
  let sw = num file "wire_bytes" star and rw = num file "wire_bytes" ring in
  if rw >= sw then Alcotest.failf "%s: ring wire bytes %.0f not below direct %.0f at 64 GPUs" file rw sw;
  check Alcotest.bool "rings were built" true (num file "rings" ring > 0.0)

(* ---------------- fleet and sim ---------------- *)

let test_fleet_artifact () =
  let file, j = load "BENCH_fleet.json" in
  check Alcotest.bool "scale named" true (str file "scale" j <> "");
  check_flags file j [ "policy"; "keep_warm" ];
  check Alcotest.string "runs on the cluster" "cluster" (str file "machine" j);
  check Alcotest.bool "gpus >= 2" true (num file "gpus" j >= 2.0);
  let jobs = num file "job_count" j in
  check (Alcotest.float 0.0) "the tracked trace is 20 jobs" 20.0 jobs;
  check Alcotest.bool "budget > 0" true (num file "mem_budget_bytes" j > 0.0);
  let policies = arr file "policies" j in
  let find name =
    match List.find_opt (fun p -> str file "policy" p = name) policies with
    | Some p -> p
    | None -> Alcotest.failf "%s: no %S entry in policies" file name
  in
  let fifo = find "fifo" and sjf = find "sjf" and fair = find "fair" in
  List.iter
    (fun p ->
      check (Alcotest.float 0.0) "all jobs completed" jobs (num file "job_count" p);
      check Alcotest.bool "makespan > 0" true (num file "makespan_seconds" p > 0.0);
      check Alcotest.bool "mean wait > 0" true (num file "mean_wait_seconds" p > 0.0);
      check Alcotest.bool "p95 latency > 0" true (num file "p95_latency_seconds" p > 0.0);
      check Alcotest.bool "throughput > 0" true (num file "throughput_jobs_per_s" p > 0.0);
      let fairness = num file "fairness" p in
      check Alcotest.bool "fairness in (0, 1]" true (fairness > 0.0 && fairness <= 1.0 +. 1e-9);
      check Alcotest.bool "every job hit or missed the cache" true
        (num file "cache_hits" p +. num file "cache_misses" p = jobs);
      check Alcotest.bool "evictions >= 0" true (num file "evictions" p >= 0.0);
      check Alcotest.bool "spilled bytes >= 0" true (num file "spilled_bytes" p >= 0.0))
    [ fifo; sjf; fair ];
  (* Acceptance bar: a backlog-aware policy must beat FIFO on mean queue
     wait without giving up throughput (within 5%). *)
  let fifo_wait = num file "mean_wait_seconds" fifo in
  let best_wait = Float.min (num file "mean_wait_seconds" sjf) (num file "mean_wait_seconds" fair) in
  if best_wait >= fifo_wait then
    Alcotest.failf "%s: neither sjf nor fair beats fifo on mean wait (%.9g vs %.9g)" file best_wait
      fifo_wait;
  let fifo_tp = num file "throughput_jobs_per_s" fifo in
  List.iter
    (fun p ->
      let tp = num file "throughput_jobs_per_s" p in
      if Float.abs (tp -. fifo_tp) > 0.05 *. fifo_tp then
        Alcotest.failf "%s: %s throughput %.9g strays >5%% from fifo's %.9g" file (str file "policy" p)
          tp fifo_tp)
    [ sjf; fair ]

let test_sim_artifact () =
  let file, j = load "BENCH_sim.json" in
  check_flags file j [ "allocator"; "storm" ];
  check Alcotest.string "runs on the cluster" "cluster" (str file "machine" j);
  let nodes = num file "nodes" j and gpn = num file "gpus_per_node" j in
  let gpus = num file "gpus" j in
  check (Alcotest.float 0.0) "gpus = nodes x gpus_per_node" (nodes *. gpn) gpus;
  (* The tracked storm is the 64-GPU configuration: that's the scale the
     speedup claim is made at. *)
  check (Alcotest.float 0.0) "tracked storm is 64 GPUs" 64.0 gpus;
  let flows = num file "flows" j in
  check Alcotest.bool "flows > 0" true (flows > 0.0);
  check Alcotest.bool "waves > 0" true (num file "waves" j > 0.0);
  check (Alcotest.float 0.0) "events = 2 x flows (arrival + completion)" (2.0 *. flows)
    (num file "events" j);
  check Alcotest.bool "iterations >= 3" true (num file "iterations" j >= 3.0);
  let side name =
    let s = member file name j in
    let median = num file "median_seconds" s in
    let spread = num file "spread_seconds" s in
    let eps = num file "events_per_second" s in
    check Alcotest.bool (name ^ " median > 0") true (median > 0.0);
    check Alcotest.bool (name ^ " spread >= 0") true (spread >= 0.0);
    (* events/s must be consistent with the median, not a stale stamp *)
    let expected = num file "events" j /. median in
    check Alcotest.bool (name ^ " events/s consistent with median") true
      (Float.abs (eps -. expected) <= 1e-6 *. expected);
    (median, eps)
  in
  let ref_median, _ = side "reference" in
  let inc_median, inc_eps = side "incremental" in
  let speedup = num file "speedup" j in
  check Alcotest.bool "speedup consistent with medians" true
    (Float.abs (speedup -. (ref_median /. inc_median)) <= 1e-6 *. speedup);
  (* Acceptance bars of the fast-path work: the incremental allocator is
     at least 10x the from-scratch reference at 64-GPU scale, and clears
     the committed absolute throughput floor. *)
  if speedup < 10.0 then Alcotest.failf "%s: incremental speedup %.2fx below the 10x bar" file speedup;
  let floor = num file "floor_events_per_second" j in
  check Alcotest.bool "floor > 0" true (floor > 0.0);
  if inc_eps < floor then
    Alcotest.failf "%s: incremental %.0f events/s below the committed floor %.0f" file inc_eps floor

(* ---------------- the shared parser ---------------- *)

let test_parser_rejects_garbage () =
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "parser accepted %S" bad)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "truex"; "{\"a\":1} extra"; "\"unterminated"; "\"\\q\"" ];
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("bool", Json.Bool false);
        ("num", Json.Num (-2.5e-07));
        ("int", Json.int 123456789012);
        ("str", Json.Str "quote \" backslash \\ newline \n bell \007 tab \t");
        ("arr", Json.Arr [ Json.Arr []; Json.Obj []; Json.Num 0.125; Json.Bool true ]);
        ("obj", Json.Obj [ ("nested", Json.Arr [ Json.Str "x" ]) ]);
      ]
  in
  check Alcotest.bool "of_string (to_string v) = v" true (Json.of_string (Json.to_string v) = v);
  check Alcotest.bool "\\u escapes decode" true
    (Json.of_string {|"\u0041\u00e9"|} = Json.Str "A\xc3\xa9")

let suite =
  [
    tc "json parser rejects malformed input" test_parser_rejects_garbage;
    tc "BENCH_overlap.json: schema + results" test_overlap_artifact;
    tc "BENCH_coherence.json: schema + acceptance bars" test_coherence_artifact;
    tc "BENCH_collective.json: schema + acceptance bars" test_collective_artifact;
    tc "BENCH_fleet.json: schema + acceptance bars" test_fleet_artifact;
    tc "BENCH_sim.json: schema + speedup and throughput bars" test_sim_artifact;
    tc "BENCH_scale.json: schema + scaling acceptance bars" test_scale_artifact;
    tc "BENCH_fusion.json: schema + acceptance bars" test_fusion_artifact;
  ]
