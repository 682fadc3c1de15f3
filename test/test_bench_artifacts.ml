(* Schema validation of the committed BENCH_*.json benchmark artifacts.

   The bench harness (bench/main.ml) writes one JSON file per tracked
   experiment; these are committed so CI can trend them. A hand-rolled
   parser (no JSON library in the build) checks every artifact parses and
   carries the fields its consumers read, so a stale or hand-mangled
   artifact fails [dune runtest]. The coherence artifact additionally
   carries the acceptance bars of the lazy-coherence work: a >=30%
   replicated-traffic cut on at least two of {kmeans, bfs, spmv} at
   4 GPUs, results matching everywhere, and kmeans no slower under the
   overlap engine than under barriers. *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---------------- a minimal JSON parser ---------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    (match peek () with Some '"' -> advance () | _ -> fail "expected '\"'");
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' ->
              Buffer.add_char b '\n';
              advance ();
              go ()
          | Some 't' ->
              Buffer.add_char b '\t';
              advance ();
              go ()
          | Some 'u' ->
              (* artifacts only carry ASCII; keep the escape verbatim *)
              Buffer.add_string b "\\u";
              advance ();
              go ()
          | Some c ->
              Buffer.add_char b c;
              advance ();
              go ()
          | None -> fail "unterminated escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let members = ref [] in
          let rec member () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            (match peek () with Some ':' -> advance () | _ -> fail "expected ':'");
            let v = parse_value () in
            members := (key, v) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                member ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          member ();
          Obj (List.rev !members)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec item () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                item ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          item ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ---------------- accessors ---------------- *)

let member file key = function
  | Obj kvs -> (
      match List.assoc_opt key kvs with
      | Some v -> v
      | None -> Alcotest.failf "%s: missing key %S" file key)
  | _ -> Alcotest.failf "%s: expected an object around %S" file key

let str file key obj =
  match member file key obj with
  | Str s -> s
  | _ -> Alcotest.failf "%s: %S is not a string" file key

let num file key obj =
  match member file key obj with
  | Num f -> f
  | _ -> Alcotest.failf "%s: %S is not a number" file key

let boolean file key obj =
  match member file key obj with
  | Bool b -> b
  | _ -> Alcotest.failf "%s: %S is not a bool" file key

let arr file key obj =
  match member file key obj with
  | Arr items -> items
  | _ -> Alcotest.failf "%s: %S is not an array" file key

(* ---------------- artifact discovery ---------------- *)

(* Tests execute inside the dune sandbox; the artifacts are declared as
   test deps, so walking up from the cwd finds the dune-copied versions
   (and running the binary from a source checkout finds the committed
   ones). *)
let find_artifact_dir () =
  let has_artifacts dir =
    match Sys.readdir dir with
    | entries ->
        Array.exists
          (fun e -> String.length e > 11 && String.sub e 0 6 = "BENCH_" && Filename.check_suffix e ".json")
          entries
    | exception Sys_error _ -> false
  in
  let rec walk dir depth =
    if depth > 8 then None
    else if has_artifacts dir then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else walk parent (depth + 1)
  in
  walk (Sys.getcwd ()) 0

let load name =
  match find_artifact_dir () with
  | None -> Alcotest.failf "no BENCH_*.json found walking up from %s" (Sys.getcwd ())
  | Some dir ->
      let path = Filename.concat dir name in
      if not (Sys.file_exists path) then Alcotest.failf "missing artifact %s in %s" name dir;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      (name, parse_json contents)

(* ---------------- schemas ---------------- *)

(* Every artifact must record the runtime-flag configuration that
   produced it, so a trend reader never has to guess which switches a
   historical data point was measured under. *)
let check_flags file j keys =
  match member file "flags" j with
  | Obj kvs ->
      check Alcotest.bool "flags non-empty" true (kvs <> []);
      List.iter
        (fun k ->
          if not (List.mem_assoc k kvs) then
            Alcotest.failf "%s: flags missing %S (has: %s)" file k
              (String.concat ", " (List.map fst kvs)))
        keys
  | _ -> Alcotest.failf "%s: \"flags\" is not an object" file

(* The runs name their modes with the runtime's own spellings. *)
let spellings name = (Mgacc.Rt_config.find name).Mgacc.Rt_config.spellings

let test_overlap_artifact () =
  let file, j = load "BENCH_overlap.json" in
  check Alcotest.bool "scale named" true (str file "scale" j <> "");
  check_flags file j [ "overlap"; "coherence"; "collective" ];
  let runs = arr file "runs" j in
  check Alcotest.bool "runs non-empty" true (runs <> []);
  List.iter
    (fun run ->
      ignore (str file "app" run);
      ignore (str file "machine" run);
      check Alcotest.bool "gpus >= 2" true (num file "gpus" run >= 2.0);
      check Alcotest.bool "barrier time > 0" true (num file "barrier_seconds" run > 0.0);
      check Alcotest.bool "overlap time > 0" true (num file "overlap_seconds" run > 0.0);
      check Alcotest.bool "hidden >= 0" true (num file "hidden_seconds" run >= 0.0);
      check Alcotest.bool "prefetch hits >= 0" true (num file "prefetch_hits" run >= 0.0);
      check Alcotest.bool "results match" true (boolean file "results_match" run))
    runs

let test_coherence_artifact () =
  let file, j = load "BENCH_coherence.json" in
  check Alcotest.bool "scale named" true (str file "scale" j <> "");
  check_flags file j [ "coherence"; "overlap"; "collective" ];
  let runs = arr file "runs" j in
  check Alcotest.bool "runs non-empty" true (runs <> []);
  let big_cuts_at_4 = ref [] in
  List.iter
    (fun run ->
      let app = str file "app" run in
      ignore (str file "machine" run);
      let gpus = num file "gpus" run in
      check Alcotest.bool "gpus >= 2" true (gpus >= 2.0);
      check Alcotest.bool "eager time > 0" true (num file "eager_seconds" run > 0.0);
      check Alcotest.bool "lazy time > 0" true (num file "lazy_seconds" run > 0.0);
      let eager = num file "eager_coh_bytes" run and lz = num file "lazy_coh_bytes" run in
      check Alcotest.bool "coh bytes >= 0" true (eager >= 0.0 && lz >= 0.0);
      List.iter
        (fun k -> check Alcotest.bool (k ^ " >= 0") true (num file k run >= 0.0))
        [
          "eager_gpu_gpu_bytes";
          "lazy_gpu_gpu_bytes";
          "lazy_shipped_bytes";
          "lazy_deferred_bytes";
          "lazy_pulled_bytes";
          "lazy_elided_bytes";
        ];
      check Alcotest.bool "lazy never ships more" true (lz <= eager);
      check Alcotest.bool "results match" true (boolean file "results_match" run);
      if gpus = 4.0 && List.mem app [ "kmeans"; "bfs"; "spmv" ] && lz <= 0.7 *. eager then
        big_cuts_at_4 := app :: !big_cuts_at_4)
    runs;
  if List.length !big_cuts_at_4 < 2 then
    Alcotest.failf "%s: <2 of kmeans/bfs/spmv cut >=30%% at 4 GPUs (got: %s)" file
      (String.concat ", " !big_cuts_at_4);
  let km = arr file "kmeans_overlap" j in
  check Alcotest.bool "kmeans overlap runs present" true (km <> []);
  List.iter
    (fun run ->
      let barrier = num file "barrier_seconds" run in
      let overlap = num file "overlap_seconds" run in
      check Alcotest.bool "results match" true (boolean file "results_match" run);
      if overlap > barrier *. 1.0005 then
        Alcotest.failf "%s: kmeans overlap slower than barrier (%.9gs vs %.9gs) on %s" file
          overlap barrier (str file "machine" run))
    km

let test_collective_artifact () =
  let file, j = load "BENCH_collective.json" in
  check Alcotest.bool "scale named" true (str file "scale" j <> "");
  check_flags file j [ "collective"; "coherence"; "overlap" ];
  let runs = arr file "runs" j in
  check Alcotest.bool "runs non-empty" true (runs <> []);
  let cluster_wins = ref [] in
  List.iter
    (fun run ->
      let app = str file "app" run in
      ignore (str file "machine" run);
      let gpus = num file "gpus" run in
      check Alcotest.bool "gpus >= 2" true (gpus >= 2.0);
      check Alcotest.bool "coherence named" true
        (List.mem (str file "coherence" run) (spellings "coherence"));
      check Alcotest.bool "direct time > 0" true (num file "direct_seconds" run > 0.0);
      check Alcotest.bool "auto time > 0" true (num file "auto_seconds" run > 0.0);
      List.iter
        (fun k -> check Alcotest.bool (k ^ " >= 0") true (num file k run >= 0.0))
        [
          "direct_gpu_gpu_seconds";
          "auto_gpu_gpu_seconds";
          "gpu_gpu_bytes";
          "direct_wire_bytes";
          "auto_wire_bytes";
          "rings";
          "hierarchies";
          "segments";
        ];
      let dw = num file "direct_wire_bytes" run and aw = num file "auto_wire_bytes" run in
      (* the planner reshapes routes; it must never add wire traffic *)
      check Alcotest.bool "auto never adds wire bytes" true (aw <= dw);
      check Alcotest.bool "results match" true (boolean file "results_match" run);
      if gpus = 4.0 && List.mem app [ "kmeans"; "bfs"; "spmv" ] && aw < dw then
        cluster_wins := app :: !cluster_wins)
    runs;
  (* Acceptance bar: on the 4-GPU cluster at least one replica-heavy app
     must put strictly fewer bytes on the inter-node wire under auto. *)
  if !cluster_wins = [] then
    Alcotest.failf "%s: auto beat direct on wire bytes for none of kmeans/bfs/spmv at 4 GPUs" file

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
  let best_wait =
    Float.min (num file "mean_wait_seconds" sjf) (num file "mean_wait_seconds" fair)
  in
  if best_wait >= fifo_wait then
    Alcotest.failf "%s: neither sjf nor fair beats fifo on mean wait (%.9g vs %.9g)" file
      best_wait fifo_wait;
  let fifo_tp = num file "throughput_jobs_per_s" fifo in
  List.iter
    (fun p ->
      let tp = num file "throughput_jobs_per_s" p in
      if Float.abs (tp -. fifo_tp) > 0.05 *. fifo_tp then
        Alcotest.failf "%s: %s throughput %.9g strays >5%% from fifo's %.9g" file
          (str file "policy" p) tp fifo_tp)
    [ sjf; fair ]

let test_sim_artifact () =
  let file, j = load "BENCH_sim.json" in
  check_flags file j [ "allocator"; "storm" ];
  check Alcotest.string "runs on the cluster" "cluster" (str file "machine" j);
  let nodes = num file "nodes" j and gpn = num file "gpus_per_node" j in
  let gpus = num file "gpus" j in
  check (Alcotest.float 0.0) "gpus = nodes x gpus_per_node" (nodes *. gpn) gpus;
  (* The tracked storm is the 64-GPU configuration: that's the scale the
     tentpole speedup claim is made at. *)
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
  if speedup < 10.0 then
    Alcotest.failf "%s: incremental speedup %.2fx below the 10x bar" file speedup;
  let floor = num file "floor_events_per_second" j in
  check Alcotest.bool "floor > 0" true (floor > 0.0);
  if inc_eps < floor then
    Alcotest.failf "%s: incremental %.0f events/s below the committed floor %.0f" file inc_eps
      floor;
  (* A bench run with --machine adds a purely informational override
     cell; validate it when present (the pinned keys above must hold
     either way). *)
  match j with
  | Obj kvs -> (
      match List.assoc_opt "machine_override" kvs with
      | None -> ()
      | Some o ->
          check Alcotest.bool "override spec named" true (str file "spec" o <> "");
          check Alcotest.bool "override gpus >= 2" true (num file "gpus" o >= 2.0);
          check Alcotest.bool "override median > 0" true (num file "median_seconds" o > 0.0);
          check Alcotest.bool "override events/s > 0" true
            (num file "events_per_second" o > 0.0))
  | _ -> ()

let test_scale_artifact () =
  let file, j = load "BENCH_scale.json" in
  check Alcotest.bool "scale named" true (str file "scale" j <> "");
  check_flags file j [ "decomp"; "collective"; "coherence"; "overlap" ];
  let runs = arr file "runs" j in
  check Alcotest.bool "runs non-empty" true (runs <> []);
  (* indexed lookup: (app, gpus, decomp, collective) -> run *)
  let find ~app ~gpus ~decomp ~collective =
    match
      List.find_opt
        (fun run ->
          str file "app" run = app
          && num file "gpus" run = gpus
          && str file "decomp" run = decomp
          && str file "collective" run = collective)
        runs
    with
    | Some run -> run
    | None ->
        Alcotest.failf "%s: no run for %s at %g GPUs %s/%s" file app gpus decomp collective
  in
  let seen_gpus = ref [] in
  List.iter
    (fun run ->
      ignore (str file "app" run);
      ignore (str file "machine" run);
      let gpus = num file "gpus" run in
      check Alcotest.bool "gpus >= 4" true (gpus >= 4.0);
      if not (List.mem gpus !seen_gpus) then seen_gpus := gpus :: !seen_gpus;
      check Alcotest.bool "decomp named" true
        (List.mem (str file "decomp" run) (spellings "decomp"));
      check Alcotest.bool "collective named" true
        (List.mem (str file "collective" run) [ "star"; "ring" ]);
      check Alcotest.bool "time > 0" true (num file "seconds" run > 0.0);
      List.iter
        (fun k -> check Alcotest.bool (k ^ " >= 0") true (num file k run >= 0.0))
        [ "gpu_gpu_bytes"; "halo_bytes_per_gpu"; "wire_bytes"; "rings"; "hierarchies" ];
      (* per-GPU figure consistent with the total it was derived from *)
      check Alcotest.bool "halo/GPU consistent" true
        (Float.abs ((num file "halo_bytes_per_gpu" run *. gpus) -. num file "gpu_gpu_bytes" run)
        < gpus);
      (* Hard bar: values never ride the decomposition or the collective. *)
      check Alcotest.bool "results match" true (boolean file "results_match" run))
    runs;
  (* The tracked sweep covers the scale-out story: 4, 16 and 64 GPUs. *)
  List.iter
    (fun g ->
      if not (List.mem g !seen_gpus) then
        Alcotest.failf "%s: no runs at %g GPUs (the sweep is 4/16/64)" file g)
    [ 4.0; 16.0; 64.0 ];
  (* Acceptance bar 1: from 16 GPUs up, the 2-D tiles move strictly fewer
     per-GPU halo bytes than 1-D rows on the stencil (perimeter vs full
     row width), and the gap must hold at 64 too. *)
  List.iter
    (fun gpus ->
      let d1 =
        num file "halo_bytes_per_gpu" (find ~app:"jacobi" ~gpus ~decomp:"1d" ~collective:"star")
      in
      let d2 =
        num file "halo_bytes_per_gpu" (find ~app:"jacobi" ~gpus ~decomp:"2d" ~collective:"star")
      in
      if d2 >= d1 then
        Alcotest.failf "%s: 2-D halo/GPU %.0fB not below 1-D %.0fB at %g GPUs" file d2 d1 gpus)
    [ 16.0; 64.0 ];
  (* Acceptance bar 2: at 64 GPUs the ring schedule puts strictly fewer
     bytes on the inter-node wire than the star for the collective-heavy
     app, and the planner actually built rings. *)
  let star = find ~app:"spmv" ~gpus:64.0 ~decomp:"1d" ~collective:"star" in
  let ring = find ~app:"spmv" ~gpus:64.0 ~decomp:"1d" ~collective:"ring" in
  let sw = num file "wire_bytes" star and rw = num file "wire_bytes" ring in
  if rw >= sw then
    Alcotest.failf "%s: ring wire bytes %.0f not below star %.0f at 64 GPUs" file rw sw;
  check Alcotest.bool "rings were built" true (num file "rings" ring > 0.0)

let test_fusion_artifact () =
  let file, j = load "BENCH_fusion.json" in
  check Alcotest.bool "scale named" true (str file "scale" j <> "");
  check_flags file j [ "fuse"; "overlap"; "coherence"; "collective" ];
  let runs = arr file "runs" j in
  check Alcotest.bool "runs non-empty" true (runs <> []);
  let cluster_wins = ref [] in
  let contracted_somewhere = ref false in
  List.iter
    (fun run ->
      let app = str file "app" run in
      ignore (str file "machine" run);
      let gpus = num file "gpus" run in
      check Alcotest.bool "gpus >= 2" true (gpus >= 2.0);
      let unfused = num file "unfused_seconds" run and fused = num file "fused_seconds" run in
      check Alcotest.bool "unfused time > 0" true (unfused > 0.0);
      check Alcotest.bool "fused time > 0" true (fused > 0.0);
      let ucoh = num file "unfused_coh_bytes" run and fcoh = num file "fused_coh_bytes" run in
      check Alcotest.bool "coh bytes >= 0" true (ucoh >= 0.0 && fcoh >= 0.0);
      List.iter
        (fun k -> check Alcotest.bool (k ^ " >= 0") true (num file k run >= 0.0))
        [
          "unfused_gpu_gpu_bytes";
          "fused_gpu_gpu_bytes";
          "fused_kernels";
          "contracted_arrays";
          "relayouts";
        ];
      check Alcotest.bool "results match" true (boolean file "results_match" run);
      if num file "contracted_arrays" run >= 1.0 then contracted_somewhere := true;
      if
        gpus = 4.0
        && List.mem app [ "md"; "kmeans" ]
        && fused < unfused && fcoh < ucoh
      then cluster_wins := app :: !cluster_wins)
    runs;
  (* Acceptance bars of the fusion work: on the 4-GPU cluster both
     fusion-friendly apps are strictly faster AND ship strictly fewer
     coherence bytes fused, and at least one run shows a contracted
     temporary. *)
  List.iter
    (fun app ->
      if not (List.mem app !cluster_wins) then
        Alcotest.failf "%s: %s not strictly better fused on seconds and coh bytes at 4 GPUs"
          file app)
    [ "md"; "kmeans" ];
  if not !contracted_somewhere then
    Alcotest.failf "%s: no run demonstrates temporary contraction" file

let test_parser_rejects_garbage () =
  List.iter
    (fun bad ->
      match parse_json bad with
      | exception Bad _ -> ()
      | _ -> Alcotest.failf "parser accepted %S" bad)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "truex"; "{\"a\":1} extra"; "\"unterminated" ]

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
