(* End-to-end benchmark of one `accc run` per workload: host time (scaled
   to a reference host speed), set-up time, host allocation and the
   simulated clock, with each layer timed from outside, around calls to its
   public entry points.

     bash bench/e2e/run.sh --workload bfs-paper --seed 3 --seconds 20 --trace 0
     dune exec bench/e2e/e2e.exe -- --smoke

   One invocation measures one workload. With no [--workload], or with
   several, the binary re-invokes itself once per workload, one at a time,
   so one workload's heap never slows the next. The last line of stdout is
   a JSON object with [correct], [attempted], [failed] and [metrics].
   README.md describes the metrics, the workloads and the trace. *)

open Mgacc
open Mgacc_apps

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let mb bytes = bytes /. 1e6

(* ---------------- host speed ---------------- *)

(* A shared host can run the same code up to twice as slowly for minutes at
   a time, and CPU time slows with wall time. So every timed piece of work
   sits next to a calibration, a fixed loop that calls no library code, and
   its time is reported in reference seconds: measured seconds times
   [reference_round_s] over the calibration's time per round. On a quiet
   host a reference second is about a wall second. A calibration lasts
   about as long as what it scales, so that when the host time-slices the
   benchmark with other work, both are interrupted alike. *)

(* The calibration's time per round on a quiet 2-core VM (Firecracker,
   OCaml 5.1.1). *)
let reference_round_s = 2.45e-9

(* 1 MiB. The host's slow spells slow cache-resident code as much as the
   runs, and a larger array makes the calibration itself noisy. *)
let calibration_words = 1 lsl 17

(* Off the OCaml heap, so that no GC ever scans it. *)
let calibration_array : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout calibration_words in
  Bigarray.Array1.fill a 0;
  a

(* Seconds per round of random read-modify-writes over the array. It
   allocates nothing, so its time does not depend on the heap. *)
let calibrate ~rounds =
  let a = calibration_array in
  let t0 = now () in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to rounds do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land (calibration_words - 1) in
    let v = Bigarray.Array1.unsafe_get a j in
    Bigarray.Array1.unsafe_set a j (v lxor !x);
    acc := !acc + (v land 1023)
  done;
  ignore (Sys.opaque_identity !acc);
  (now () -. t0) /. float_of_int rounds

(* The factor from measured seconds to reference seconds. *)
let speed_scale round_s = reference_round_s /. round_s

(* ---------------- workloads ---------------- *)

type workload = {
  name : string;
  machine : string;  (** a [--machine] spec *)
  config : Machine.t -> Rt_config.t;
  default_seed : int;  (** the app's own params seed *)
  app : smoke:bool -> seed:int -> App_common.t;
  pinned_sim_s : string option;
      (** [Report.total_time] at [default_seed] (%.12g), checked on every
          non-smoke run at that seed *)
}

(* The paper's configuration: eager coherence, direct collectives, barrier
   launches, 1-D decomposition, no fusion (the Rt_config defaults). *)
let paper machine = Rt_config.make machine

let tuned machine =
  Rt_config.make ~coherence:Rt_config.Lazy ~collective:Rt_config.Auto ~overlap:true
    ~translator:{ Kernel_plan.default_options with Kernel_plan.enable_fusion = true }
    machine

let auto_collectives machine = Rt_config.make ~collective:Rt_config.Auto machine

(* Inputs are sized so that the sequential oracle plus a few dozen timed
   runs fit one invocation of about 20 s on a 2-core host. *)
let kmeans ~smoke ~seed =
  Kmeans.app
    (if smoke then { Kmeans.points = 300; features = 8; clusters = 5; iterations = 2; seed }
     else { Kmeans.points = 4000; features = 16; clusters = 5; iterations = 5; seed })

let bfs ~nodes ~max_degree ~smoke ~seed =
  Bfs.app (if smoke then { Bfs.nodes = 600; max_degree; seed } else { Bfs.nodes; max_degree; seed })

(* The generator decides padding from the LCG's low bits, whose parity
   alternates: even seeds build a matrix with no padding at all. Seed N
   maps to the odd seed 2N+1, so every input keeps the 25% padding of the
   app's own seed (19, reached at N = 9). *)
let spmv ~smoke ~seed =
  let seed = (2 * seed) + 1 in
  Spmv.app
    (if smoke then { Spmv.rows = 600; width = 6; iterations = 2; seed }
     else { Spmv.rows = 8000; width = 12; iterations = 8; seed })

let workloads =
  [
    {
      name = "kmeans-paper";
      machine = "desktop";
      config = paper;
      default_seed = Kmeans.default_params.Kmeans.seed;
      app = kmeans;
      pinned_sim_s = Some "0.000971656112605";
    };
    {
      name = "bfs-paper";
      machine = "desktop";
      config = paper;
      default_seed = Bfs.default_params.Bfs.seed;
      app = bfs ~nodes:20000 ~max_degree:16;
      pinned_sim_s = Some "0.000635001752708";
    };
    (* A sparser graph than bfs-paper's: at degree <= 16 the lazy
       protocol's host cost varies by 6-13% from seed to seed, with how the
       largest frontier scatters its writes; at degree <= 6 by 1-3%. *)
    {
      name = "bfs-tuned-16";
      machine = "fattree:4x4";
      config = tuned;
      default_seed = Bfs.default_params.Bfs.seed;
      app = bfs ~nodes:10000 ~max_degree:6;
      pinned_sim_s = None;
    };
    {
      name = "spmv-auto-64";
      machine = "fattree:16x4";
      config = auto_collectives;
      default_seed = (Spmv.default_params.Spmv.seed - 1) / 2;
      app = spmv;
      pinned_sim_s = None;
    };
  ]

(* ---------------- host spans ---------------- *)

type span = {
  id : int;
  label : string;
  parent : int;  (** -1 for a run's root span *)
  run : int;
  start : float;
  stop : float;
  alloc : float;  (** bytes allocated while the span was open *)
}

let next_span_id = ref 0

(* Spans of the traced run in progress, newest first. *)
let open_run = ref []

let span ~run ~parent label f =
  let id = !next_span_id in
  incr next_span_id;
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let v = f id in
  let t1 = now () in
  let a1 = Gc.allocated_bytes () in
  open_run := { id; label; parent; run; start = t0; stop = t1; alloc = a1 -. a0 } :: !open_run;
  v

let dur s = s.stop -. s.start

(* ---------------- one run ---------------- *)

type run = {
  machine : Machine.t;
  env : Host_interp.env;
  report : Report.t;
  json : string;  (** [Report.to_json report] *)
  wall : float;
  alloc : float;
  spans : span list;  (** empty for an untraced run *)
}

let timed f =
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  (v, t1 -. t0, Gc.allocated_bytes () -. a0)

(* The `accc run` equivalent, untraced. *)
let plain_run (w : workload) spec source =
  let (machine, env, report, json), wall, alloc =
    timed (fun () ->
        let machine = Machine.of_spec spec in
        let program = parse_string ~name:(w.name ^ ".c") source in
        let config = w.config machine in
        let env, report = run_acc ~config ~machine program in
        (machine, env, report, Report.to_json report))
  in
  { machine; env; report; json; wall; alloc; spans = [] }

(* [Acc_runtime.run] replayed through public calls, with one span per
   top-level step and per hook call. Its report must equal the untraced
   run's. *)
let traced_run ~run (w : workload) spec source =
  open_run := [];
  let machine, env, report, json =
    span ~run ~parent:(-1) "run" (fun root ->
        let step name f = span ~run ~parent:root name (fun _ -> f ()) in
        let machine, cfg =
          step "machine" (fun () ->
              let m = Machine.of_spec spec in
              Machine.reset m;
              (m, w.config m))
        in
        let program = step "parse" (fun () -> parse_string ~name:(w.name ^ ".c") source) in
        let plans =
          step "plan" (fun () -> Program_plan.build ~options:cfg.Rt_config.translator program)
        in
        let session = step "create" (fun () -> Acc_runtime.create cfg plans) in
        let env =
          span ~run ~parent:root "run_program" (fun rp ->
              let h = Acc_runtime.hooks session in
              let hook name f = span ~run ~parent:rp name (fun _ -> f ()) in
              let hooks =
                {
                  Host_interp.on_parallel_loop =
                    (fun env l -> hook "loop" (fun () -> h.Host_interp.on_parallel_loop env l));
                  on_data_enter = (fun env c -> hook "data_enter" (fun () -> h.on_data_enter env c));
                  on_data_exit = (fun env c -> hook "data_exit" (fun () -> h.on_data_exit env c));
                  on_update_host = (fun env s -> hook "update_host" (fun () -> h.on_update_host env s));
                  on_update_device =
                    (fun env s -> hook "update_device" (fun () -> h.on_update_device env s));
                }
              in
              Host_interp.run_program ~hooks (Program_plan.program plans))
        in
        step "finish" (fun () -> Acc_runtime.finish session);
        let report, json =
          step "report" (fun () ->
              let r = Acc_runtime.report session in
              (r, Report.to_json r))
        in
        (machine, env, report, json))
  in
  let spans = !open_run in
  open_run := [];
  let root = List.find (fun s -> s.parent = -1) spans in
  { machine; env; report; json; wall = dur root; alloc = root.alloc; spans }

(* One standalone set-up: what a run does before the host program starts. *)
let setup (w : workload) spec source =
  let machine = Machine.of_spec spec in
  let program = parse_string ~name:(w.name ^ ".c") source in
  let cfg = w.config machine in
  let plans = Program_plan.build ~options:cfg.Rt_config.translator program in
  ignore (Acc_runtime.create cfg plans : Acc_runtime.t)

(* ---------------- statistics ---------------- *)

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* ---------------- metrics ---------------- *)

let is_data_hook name =
  String.starts_with ~prefix:"data_" name || String.starts_with ~prefix:"update_" name

(* The layer metrics one traced run yields, as (name, unit, value);
   medians across runs are reported. *)
let layer_values ~plans r =
  let sum pick = List.fold_left (fun a s -> if pick s.label then a +. dur s else a) 0.0 r.spans in
  let alloc pick = List.fold_left (fun a s -> if pick s.label then a +. s.alloc else a) 0.0 r.spans in
  let calls pick = List.length (List.filter (fun s -> pick s.label) r.spans) in
  let is n name = name = n in
  let loop_s = sum (is "loop") and data_s = sum is_data_hook in
  let host_s = sum (is "run_program") -. loop_s -. data_s in
  let secs name v = (name, "s", v) and ratio name v = (name, "ratio", v) in
  let megabytes name v = (name, "MB", mb v) and sim name v = (name, "simulated_s", v) in
  let count name n = (name, "count", float_of_int n) and bytes name n = (name, "B", float_of_int n) in
  let rep = r.report in
  [
    secs "gpusim.machine_s" (sum (is "machine"));
    secs "minic.parse_s" (sum (is "parse"));
    secs "translator.plan_s" (sum (is "plan"));
    count "translator.loops" (Program_plan.loop_count plans);
    count "translator.fused_kernels" rep.Report.fused_kernels;
    count "translator.contracted_arrays" (List.length (Program_plan.contracted_arrays plans));
    secs "runtime.create_s" (sum (is "create"));
    secs "exec.host_s" host_s;
    ratio "exec.host_share" (host_s /. r.wall);
    megabytes "exec.host_alloc_mb" (alloc (is "run_program") -. alloc (is "loop") -. alloc is_data_hook);
    secs "runtime.loop_s" loop_s;
    ratio "runtime.loop_share" (loop_s /. r.wall);
    count "runtime.loop_calls" (calls (is "loop"));
    megabytes "runtime.loop_alloc_mb" (alloc (is "loop"));
    secs "runtime.data_s" data_s;
    count "runtime.data_calls" (calls is_data_hook);
    secs "runtime.finish_s" (sum (is "finish"));
    secs "runtime.report_s" (sum (is "report"));
    count "runtime.launches" rep.Report.launches;
    count "runtime.prefetch_hits" rep.Report.prefetch_hits;
    count "runtime.rebalances" rep.Report.rebalances;
    bytes "coh.shipped_bytes" rep.Report.coh_shipped_bytes;
    bytes "coh.deferred_bytes" rep.Report.coh_deferred_bytes;
    bytes "coh.pulled_bytes" rep.Report.coh_pulled_bytes;
    bytes "coh.elided_bytes" (Report.coh_elided_bytes rep);
    count "collective.rings" rep.Report.collective_rings;
    count "collective.hierarchies" rep.Report.collective_hierarchies;
    count "collective.direct_groups" rep.Report.collective_direct_groups;
    count "collective.segments" rep.Report.collective_segments;
    sim "gpusim.kernel_s" rep.Report.kernel_time;
    sim "gpusim.cpu_gpu_s" rep.Report.cpu_gpu_time;
    sim "gpusim.gpu_gpu_s" rep.Report.gpu_gpu_time;
    sim "gpusim.overhead_s" rep.Report.overhead_time;
    sim "gpusim.hidden_s" rep.Report.hidden_seconds;
    bytes "gpusim.cpu_gpu_bytes" rep.Report.cpu_gpu_bytes;
    bytes "gpusim.gpu_gpu_bytes" rep.Report.gpu_gpu_bytes;
    bytes "gpusim.wire_bytes" rep.Report.wire_bytes;
    count "gpusim.spans" (List.length (Trace.spans r.machine.Machine.trace));
  ]

(* The top-level steps must account for the traced wall time. *)
let steps_cover_wall r =
  let root = List.find (fun s -> s.parent = -1) r.spans in
  let steps = List.fold_left (fun a s -> if s.parent = root.id then a +. dur s else a) 0.0 r.spans in
  Float.abs (r.wall -. steps) <= Float.max (0.05 *. r.wall) 0.002

(* ---------------- one workload ---------------- *)

type ctx = {
  w : workload;
  seed : int;
  smoke : bool;
  app : App_common.t;
  oracle : Host_interp.env;
  mutable reference : (string * Report.t) option;  (** the first run's report *)
  mutable attempted : int;
  mutable errors : string list;
  mutable verify_s : float list;
}

(* Run [f], verify its outputs against the oracle and its report against
   the first run's; [None] when the run failed. *)
let checked ctx f =
  ctx.attempted <- ctx.attempted + 1;
  (* Every run starts from the same heap: no run pays to collect the
     previous run's garbage. *)
  Gc.full_major ();
  let verdict =
    match f () with
    | exception e -> Error ("raised " ^ Printexc.to_string e)
    | r -> (
        let v, dt, _ = timed (fun () -> App_common.verify ctx.app ~against:ctx.oracle r.env) in
        ctx.verify_s <- dt :: ctx.verify_s;
        let sim = Printf.sprintf "%.12g" r.report.Report.total_time in
        match (v, ctx.reference, ctx.w.pinned_sim_s) with
        | Error e, _, _ -> Error ("output differs from the sequential oracle: " ^ e)
        | Ok (), Some (json, _), _ when json <> r.json -> Error "report differs from the first run's"
        | Ok (), Some _, _ -> Ok r
        | Ok (), None, Some pin when ctx.seed = ctx.w.default_seed && (not ctx.smoke) && sim <> pin ->
            Error (Printf.sprintf "sim_s %s at the default seed, pinned at %s" sim pin)
        | Ok (), None, _ ->
            ctx.reference <- Some (r.json, r.report);
            Ok r)
  in
  match verdict with
  | Ok r -> Some r
  | Error e ->
      ctx.errors <- e :: ctx.errors;
      None

let repeat_for ~seconds ~min_runs f =
  let deadline = now () +. seconds in
  let n = ref 0 in
  while !n < min_runs || now () < deadline do
    f !n;
    incr n
  done

type result = {
  metrics : (string * string * float) list;  (** name, unit, value *)
  correct : bool;
  attempted : int;
  failed : int;
  notes : string list;  (** human-readable lines printed before the result *)
  all_spans : span list;  (** every traced run's spans *)
}

(* Runs keep only the numbers they contribute: a retained run would grow
   the live heap, and with it every later run's GC work. *)
let bench_workload ~smoke ~seed ~seconds ~trace (w : workload) =
  let seconds = if smoke then 0.0 else seconds and min_runs = if smoke then 1 else 3 in
  let spec = match Machine.spec_of_string w.machine with Ok s -> s | Error e -> failwith e in
  let app = w.app ~smoke ~seed in
  let source = app.App_common.source in
  let oracle, seq_s, _ = timed (fun () -> App_common.sequential app) in
  let ctx =
    { w; seed; smoke; app; oracle; reference = None; attempted = 0; errors = []; verify_s = [] }
  in
  let plans =
    Program_plan.build
      ~options:(w.config (Machine.of_spec spec)).Rt_config.translator
      (parse_string ~name:(w.name ^ ".c") source)
  in
  let spans = ref [] and layer_runs = ref [] and traced_walls = ref [] and loop_ms = ref [] in
  let walls = ref [] and allocs = ref [] in
  let traced ~record n =
    Option.iter
      (fun r ->
        spans := r.spans @ !spans;
        if smoke && not (steps_cover_wall r) then
          ctx.errors <- "traced layer times do not sum to the traced wall time" :: ctx.errors;
        if record then begin
          layer_runs := layer_values ~plans r :: !layer_runs;
          traced_walls := r.wall :: !traced_walls;
          List.iter (fun s -> if s.label = "loop" then loop_ms := (1e3 *. dur s) :: !loop_ms) r.spans
        end)
      (checked ctx (fun () -> traced_run ~run:n w spec source))
  in
  (* The run's wall time, when it passed. *)
  let untraced () =
    Option.map
      (fun r ->
        walls := r.wall :: !walls;
        allocs := r.alloc :: !allocs;
        r.wall)
      (checked ctx (fun () -> plain_run w spec source))
  in
  (* The first run is traced: it is the warm-up and fixes the reference
     report every later run must reproduce. *)
  traced ~record:false 0;
  let calibrations = ref [] and run_norms = ref [] in
  let e2e =
    if trace = 1 && not smoke then []
    else begin
      (* Set-ups are sampled between the timed runs, over the same window,
         so that a burst of load on the host skews both alike. A set-up
         (about 0.3 ms) is scaled by a calibration of 0.25 ms just before
         it, a run by the mean of the 5 ms calibrations on either side. *)
      let setups = ref [] in
      let run_rounds = 2_000_000 and setup_rounds = 100_000 in
      let calibration = ref (calibrate ~rounds:run_rounds) in
      repeat_for ~seconds ~min_runs (fun _ ->
          for _ = 1 to 10 do
            let round_s = calibrate ~rounds:setup_rounds in
            let (), dt, _ = timed (fun () -> setup w spec source) in
            setups := (dt *. speed_scale round_s) :: !setups
          done;
          let before = !calibration in
          let wall = untraced () in
          calibration := calibrate ~rounds:run_rounds;
          calibrations := !calibration :: !calibrations;
          let scale = speed_scale ((before +. !calibration) /. 2.0) in
          Option.iter (fun wall -> run_norms := (wall *. scale) :: !run_norms) wall);
      match (ctx.reference, !run_norms) with
      | Some (_, rep), _ :: _ ->
          [
            ("run_norm_s", "s", median !run_norms);
            ("setup_s", "s", median !setups);
            ("sim_s", "simulated_s", rep.Report.total_time);
            ( "sim_device_mem_bytes",
              "B",
              float_of_int (rep.Report.mem_user_bytes + rep.Report.mem_system_bytes) );
            ("host_alloc_mb", "MB", mb (median !allocs));
          ]
      | _ -> []
    end
  in
  let layers =
    if trace = 0 && not smoke then []
    else begin
      (* Traced and untraced runs alternate, so the tracing overhead is
         measured under the same conditions. *)
      repeat_for ~seconds ~min_runs:(2 * min_runs) (fun n ->
          if n mod 2 = 0 then ignore (untraced () : float option)
          else traced ~record:true ((n / 2) + 1));
      match (!layer_runs, !walls) with
      | (first :: _ as runs), _ :: _ ->
          let value i run =
            let _, _, v = List.nth run i in
            v
          in
          List.mapi (fun i (name, unit, _) -> (name, unit, median (List.map (value i) runs))) first
          @ [
              ("runtime.loop_p50_ms", "ms", quantile !loop_ms 0.5);
              ("runtime.loop_p90_ms", "ms", quantile !loop_ms 0.9);
              ("runtime.loop_max_ms", "ms", List.fold_left Float.max 0.0 !loop_ms);
              ("oracle.seq_s", "s", seq_s);
              ("oracle.verify_s", "s", median ctx.verify_s);
              ("trace.overhead", "ratio", (median !traced_walls /. median !walls) -. 1.0);
            ]
      | _ -> []
    end
  in
  let failed = List.length ctx.errors in
  let metrics = e2e @ layers in
  let notes =
    Printf.sprintf "%s: seed %d, %d runs attempted, %d failed (fail_rate %g)%s" w.name seed
      ctx.attempted failed
      (float_of_int failed /. float_of_int (max 1 ctx.attempted))
      (if smoke then ", smoke" else "")
    :: List.filter_map
         (fun (label, xs) ->
           if xs = [] then None
           else
             Some
               (Printf.sprintf "  %s: median %.6f q1 %.6f q3 %.6f n %d" label (median xs)
                  (quantile xs 0.25) (quantile xs 0.75) (List.length xs)))
         [
           ("wall time of a run (s)", !walls);
           ("calibration round (ns)", List.map (fun s -> s *. 1e9) !calibrations);
           ("run_norm_s", !run_norms);
         ]
    @ List.rev_map (fun e -> "  FAILED: " ^ e) ctx.errors
  in
  {
    metrics;
    correct = failed = 0 && metrics <> [];
    attempted = ctx.attempted;
    failed;
    notes;
    all_spans = !spans;
  }

(* ---------------- output ---------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_json r =
  let metric (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Results of one or more workloads, as written by --out. *)
let out_json ~seed ~smoke ~trace rows =
  Printf.sprintf "{\"seed\": %s, \"smoke\": %b, \"trace\": %d, \"workloads\": {%s}}\n"
    (match seed with Some s -> string_of_int s | None -> "\"default\"")
    smoke trace
    (String.concat ", " (List.map (fun (name, json) -> Printf.sprintf "%S: %s" name json) rows))

(* Chrome-trace JSON: one complete event per span, one row per run. *)
let write_trace dir (w : workload) spans =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity spans in
  let us t = (t -. t0) *. 1e6 in
  let runs = List.sort_uniq compare (List.map (fun s -> s.run) spans) in
  let events =
    Printf.sprintf
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": {\"name\": \"e2e %s\"}}"
      w.name
    :: List.map
         (fun r ->
           Printf.sprintf
             "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"args\": \
              {\"name\": \"run %d\"}}"
             r r)
         runs
    @ List.rev_map
        (fun s ->
          Printf.sprintf
            "{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \
             \"args\": {\"span\": %d, \"parent\": %d, \"run\": %d, \"alloc_mb\": %.6f}}"
            s.label s.run (us s.start) (dur s *. 1e6) s.id s.parent s.run (mb s.alloc))
        spans
  in
  write_file
    (Filename.concat dir (w.name ^ ".trace.json"))
    ("[\n" ^ String.concat ",\n" events ^ "\n]\n")

(* Names listed in BENCHMARK.json's metric arrays, when the file is in the
   working directory. The smoke run checks it emits exactly those. *)
let declared_metrics () =
  match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      let rec find i sub =
        if i + String.length sub > String.length text then None
        else if String.sub text i (String.length sub) = sub then Some i
        else find (i + 1) sub
      in
      let rec names i stop acc =
        match find i "\"name\"" with
        | Some j when j < stop ->
            let a = String.index_from text (j + 6) '"' + 1 in
            let b = String.index_from text a '"' in
            names b stop (String.sub text a (b - a) :: acc)
        | _ -> acc
      in
      let section key =
        match find 0 key with Some i -> names i (String.index_from text i ']') [] | None -> []
      in
      Some (section "\"end_to_end\"" @ section "\"per_layer\"")

let usage =
  "e2e.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--trace-dir \
   DIR] [--smoke]"

(* Any decimal integer is a seed, however wide. The apps' generators are an
   LCG modulo 2^31 (spmv doubles the seed), so the seed is reduced modulo
   2^30, digit by digit; a sign is ignored. Seeds in [0, 2^30) stay as they
   are. *)
let seed_of_string s =
  let digits =
    if String.starts_with ~prefix:"-" s || String.starts_with ~prefix:"+" s then
      String.sub s 1 (String.length s - 1)
    else s
  in
  if digits = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') digits) then None
  else
    Some (String.fold_left (fun a c -> ((a * 10) + Char.code c - 48) land ((1 lsl 30) - 1)) 0 digits)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("e2e: " ^ msg);
      exit 2)
    fmt

let run_one ~smoke ~seed ~seconds ~trace ~out ~trace_dir (w : workload) =
  let r =
    bench_workload ~smoke ~seed:(Option.value seed ~default:w.default_seed) ~seconds ~trace w
  in
  let emitted = List.sort compare (List.map (fun (name, _, _) -> name) r.metrics) in
  let r =
    match declared_metrics () with
    | Some declared when smoke && List.sort compare declared <> emitted ->
        {
          r with
          correct = false;
          notes = r.notes @ [ "  FAILED: the metrics emitted differ from BENCHMARK.json's" ];
        }
    | _ -> r
  in
  List.iter print_endline r.notes;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-30s %18.9g %s\n" name v unit) r.metrics;
  let json = result_json r in
  Option.iter (fun dir -> write_trace dir w r.all_spans) trace_dir;
  Option.iter (fun path -> write_file path (out_json ~seed ~smoke ~trace [ (w.name, json) ])) out;
  print_endline json;
  if not r.correct then exit 1

(* One child process per workload, one at a time. *)
let run_children ~smoke ~seed ~seconds ~trace ~out ~trace_dir ws =
  let args =
    (match seed with Some s -> [ "--seed"; string_of_int s ] | None -> [])
    @ [ "--seconds"; string_of_float seconds; "--trace"; string_of_int trace ]
    @ (if smoke then [ "--smoke" ] else [])
    @ match trace_dir with Some d -> [ "--trace-dir"; d ] | None -> []
  in
  let rows =
    List.map
      (fun w ->
        let argv = Array.of_list ((Sys.executable_name :: "--workload" :: w.name :: args)) in
        let ic = Unix.open_process_args_in Sys.executable_name argv in
        let last = ref "null" in
        (try
           while true do
             let line = input_line ic in
             print_endline line;
             last := line
           done
         with End_of_file -> ());
        let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
        (w.name, !last, ok))
      ws
  in
  let json = out_json ~seed ~smoke ~trace (List.map (fun (name, j, _) -> (name, j)) rows) in
  Option.iter (fun path -> write_file path json) out;
  print_string json;
  if List.exists (fun (_, _, ok) -> not ok) rows then exit 1

let () =
  let names = ref [] and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  let out = ref None and trace_dir = ref None and smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> names := s :: !names), "NAME  workload (repeatable; default all)");
      ( "--seed",
        Arg.String
          (fun s ->
            match seed_of_string s with
            | Some n -> seed := Some n
            | None -> raise (Arg.Bad ("--seed takes an integer, not " ^ s))),
        "N  input seed, any integer, reduced modulo 2^30 (default: each app's own)" );
      ("--seconds", Arg.Set_float seconds, "S  timed runs per workload last S seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics untraced (0) or per-layer metrics (1)");
      ("--out", Arg.String (fun p -> out := Some p), "FILE  also write the results as JSON");
      ("--trace-dir", Arg.String (fun d -> trace_dir := Some d), "DIR  write host spans as Chrome traces");
      ("--smoke", Arg.Set smoke, " tiny inputs, one run per phase, every metric, self-checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !seconds < 0.0 then die "--seconds must be non-negative";
  Option.iter
    (fun p ->
      let b = Filename.basename p in
      if b = "BENCHMARK.json" || (String.starts_with ~prefix:"BENCH_" b && Filename.check_suffix b ".json")
      then die "--out never writes %s" b)
    !out;
  let selected =
    List.rev_map
      (fun n ->
        match List.find_opt (fun w -> w.name = n) workloads with
        | Some w -> w
        | None -> die "unknown workload %s (one of %s)" n (String.concat ", " (List.map (fun w -> w.name) workloads)))
      !names
  in
  let smoke = !smoke and seed = !seed and seconds = !seconds and trace = !trace in
  let out = !out and trace_dir = !trace_dir in
  match selected with
  | [ w ] -> run_one ~smoke ~seed ~seconds ~trace ~out ~trace_dir w
  | [] -> run_children ~smoke ~seed ~seconds ~trace ~out ~trace_dir workloads
  | ws -> run_children ~smoke ~seed ~seconds ~trace ~out ~trace_dir ws
