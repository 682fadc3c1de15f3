(* accc: the mgacc compiler driver.

   Compile and run mini-C/OpenACC programs on the simulated machines:

     accc run prog.c --machine desktop --gpus 2
     accc run prog.c --variant openmp
     accc check prog.c            (plans and placement decisions)
     accc pretty prog.c           (normalized source) *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let read_program path =
  try Ok (Mgacc.parse_file path) with
  | Mgacc.Loc.Error (loc, msg) -> Error (Printf.sprintf "%s: %s" (Mgacc.Loc.to_string loc) msg)
  | Sys_error e -> Error e

let machine_of name =
  Result.map
    (fun spec -> (spec, fun () -> Mgacc.Machine.of_spec spec))
    (Mgacc.Machine.spec_of_string name)

(* [--gpus] must fit the machine the spec builds — reject loudly rather
   than silently clamping to whatever the machine happens to have. *)
let gpus_consistent ~gpus spec =
  let avail = Mgacc.Machine.spec_gpus spec in
  if gpus = 0 || (gpus >= 1 && gpus <= avail) then Ok ()
  else
    Error
      (Printf.sprintf
         "--gpus %d is inconsistent with --machine %s, which has %d GPU%s (pick 1..%d or a \
          larger topology, e.g. %s)"
         gpus
         (Mgacc.Machine.spec_to_string spec)
         avail
         (if avail = 1 then "" else "s")
         avail Mgacc.Machine.spec_grammar)

(* ---------------- run ---------------- *)

let arrays_declared_in_main (program : Mgacc.Ast.program) =
  match Mgacc.Ast.find_func program "main" with
  | None -> []
  | Some f ->
      List.filter_map
        (fun s ->
          match s.Mgacc.Ast.sdesc with
          | Mgacc.Ast.Sarray_decl (_, name, _) -> Some name
          | _ -> None)
        f.Mgacc.Ast.fbody

(* The first element where [got] and [want] are not [close], printed. *)
let first_mismatch name close show want got =
  let rec go i =
    if i >= Array.length got then None
    else if close got.(i) want.(i) then go (i + 1)
    else Some (Printf.sprintf "%s[%d]: %s vs %s" name i (show got.(i)) (show want.(i)))
  in
  go 0

(* Compare every top-level array against a reference environment. *)
let check_against_arrays program ~reference:ref_env env =
  let mismatch name =
    match Mgacc.Host_interp.find_array_opt env name with
    | None -> None
    | Some view when view.Mgacc.View.elem = Mgacc.Ast.Edouble ->
        first_mismatch name
          (fun v e -> not (Float.abs (v -. e) > 1e-9 *. Float.max 1.0 (Float.abs e)))
          (Printf.sprintf "%g") (Mgacc.float_results ref_env name) (Mgacc.float_results env name)
    | Some _ ->
        first_mismatch name ( = ) string_of_int (Mgacc.int_results ref_env name)
          (Mgacc.int_results env name)
  in
  match List.find_map mismatch (arrays_declared_in_main program) with
  | None -> Ok ()
  | Some msg -> Error ("result mismatch vs sequential reference: " ^ msg)

let check_against_reference program env =
  match check_against_arrays program ~reference:(Mgacc.run_sequential program) env with
  | Ok () ->
      Format.printf "check: results match the sequential reference@.";
      Ok ()
  | Error _ as e -> e

(* [--dump]: hand each named array's first (up to) eight elements,
   printed, to [show]. *)
let dump_heads env names show =
  List.iter
    (fun name ->
      let head to_s a = List.map to_s (Array.to_list (Array.sub a 0 (min 8 (Array.length a)))) in
      match Mgacc.Host_interp.find_array_opt env name with
      | Some view when view.Mgacc.View.elem = Mgacc.Ast.Edouble ->
          show name (head (Printf.sprintf "%g") (Mgacc.float_results env name))
      | Some _ -> show name (head string_of_int (Mgacc.int_results env name))
      | None -> Format.printf "%s: no such array@." name)
    names

(* A numeric flag below its floor is a usage error naming the flag, not
   an [Invalid_argument] from deep inside the library. *)
let at_least flag floor v =
  if v >= floor then Ok () else Error (Printf.sprintf "--%s %d: must be at least %d" flag v floor)

(* An out-of-range subscript, raised by the host arrays and the device
   views alike. *)
let bounds_error name index length =
  Printf.sprintf "array %s: index %d out of bounds (length %d)" name index length

let run_cmd file machine_name variant gpus schedule_name settings chunk_kb no_distribution
    no_layout no_misscheck single_level_dirty dump_arrays show_trace trace_json blame json_report
    check_results wall_profile verbose =
  setup_logs verbose;
  (* The host-time table goes to stderr once the run is over, before any
     --check, so stdout is the same with or without it. *)
  if wall_profile then Mgacc.Wall.start ();
  let wall_table () =
    if wall_profile then begin
      Mgacc.Wall.stop ();
      Format.eprintf "host time by layer:@.%a@." Mgacc.Wall.pp ()
    end
  in
  let ( let* ) = Result.bind in
  let* program = read_program file in
  let* spec, fresh_machine = machine_of machine_name in
  let* () = gpus_consistent ~gpus spec in
  let* () = at_least "chunk-kb" 1 chunk_kb in
  let* schedule = Mgacc.Sched_policy.of_string schedule_name in
  let machine = fresh_machine () in
  let translator =
    {
      Mgacc.Kernel_plan.default_options with
      enable_distribution = not no_distribution;
      enable_layout_transform = not no_layout;
      enable_miss_check_elim = not no_misscheck;
    }
  in
  let* config =
    List.fold_left
      (fun cfg (name, value) -> Result.bind cfg (fun cfg -> Mgacc.Rt_config.set cfg name value))
      (Ok
         (Mgacc.Rt_config.make
            ?num_gpus:(if gpus = 0 then None else Some gpus)
            ~schedule ~chunk_bytes:(chunk_kb * 1024) ~two_level_dirty:(not single_level_dirty)
            ~translator machine))
      settings
  in
  try
    match variant with
    | "seq" ->
        let env = Mgacc.run_sequential program in
        wall_table ();
        dump_heads env dump_arrays (fun name xs ->
            Format.printf "%s = [|%s ...|]@." name (String.concat "; " xs));
        Ok ()
    | "openmp" ->
        let _, report = Mgacc.run_openmp ~machine program in
        wall_table ();
        Format.printf "%a@." Mgacc.Report.pp report;
        Ok ()
    | "acc" ->
        let env, report = Mgacc.run_acc ~config ~with_blame:blame program in
        wall_table ();
        if json_report then print_endline (Mgacc.Report.to_json report)
        else begin
          Format.printf "%a@." Mgacc.Report.pp report;
          if blame then Format.printf "@.%a@." Mgacc.Report.pp_blame report
        end;
        dump_heads env dump_arrays (fun name xs ->
            Format.printf "%s[0..%d] = %s@." name (List.length xs - 1) (String.concat "; " xs));
        if show_trace then
          Format.printf "@.%a@." (Mgacc.Trace.pp_gantt ~width:100) machine.Mgacc.Machine.trace;
        (match trace_json with
        | Some path ->
            let oc = open_out path in
            output_string oc (Mgacc.Trace.to_chrome_json machine.Mgacc.Machine.trace);
            close_out oc;
            Format.printf "trace written to %s (load in chrome://tracing or perfetto)@." path
        | None -> ());
        if check_results then check_against_reference program env else Ok ()
    | other -> Error (Printf.sprintf "unknown variant %S (acc|openmp|seq)" other)
  with
  | Mgacc.Loc.Error (loc, msg) -> Error (Printf.sprintf "%s: %s" (Mgacc.Loc.to_string loc) msg)
  | Mgacc.Memory.Out_of_device_memory { device_id; requested; available } ->
      Error
        (Printf.sprintf "device %d out of memory: requested %s, available %s" device_id
           (Mgacc.Bytesize.to_string requested)
           (Mgacc.Bytesize.to_string available))
  | Mgacc.Launch.Window_violation { array; index; gpu; what } ->
      Error
        (Printf.sprintf
           "localaccess violation on GPU %d: array %s index %d (%s) — the directive does not \
            cover this access"
           gpu array index what)
  | Mgacc.View.Bounds { name; index; length } -> Error (bounds_error name index length)

(* ---------------- scale ---------------- *)

(* A mini Fig. 7 for the user's own program: OpenMP baseline plus the
   proposal on every GPU count of the chosen machine, with correctness
   checked against the sequential reference at each configuration. *)
let scale_cmd file machine_name =
  let ( let* ) = Result.bind in
  let* program = read_program file in
  let* _spec, fresh_machine = machine_of machine_name in
  try
    let probe = fresh_machine () in
    let max_gpus = Mgacc.Machine.num_gpus probe in
    let ref_env = Mgacc.run_sequential program in
    let machine = fresh_machine () in
    let _, omp = Mgacc.run_openmp ~machine program in
    let t = Mgacc.Table.create ~headers:[ "variant"; "total"; "vs OpenMP"; "CPU-GPU"; "GPU-GPU"; "check" ] in
    Mgacc.Table.add_row t
      [ omp.Mgacc.Report.variant; Printf.sprintf "%.6fs" omp.Mgacc.Report.total_time; "1.00x";
        "-"; "-"; "-" ];
    for gpus = 1 to max_gpus do
      let machine = fresh_machine () in
      let env, r = Mgacc.run_acc ~config:(Mgacc.Rt_config.make ~num_gpus:gpus machine) program in
      let ok =
        match check_against_arrays program ~reference:ref_env env with
        | Ok () -> "ok"
        | Error _ -> "MISMATCH"
      in
      Mgacc.Table.add_row t
        [
          r.Mgacc.Report.variant;
          Printf.sprintf "%.6fs" r.Mgacc.Report.total_time;
          Printf.sprintf "%.2fx" (Mgacc.Report.speedup_vs r ~baseline:omp);
          Printf.sprintf "%.6fs" r.Mgacc.Report.cpu_gpu_time;
          Printf.sprintf "%.6fs" r.Mgacc.Report.gpu_gpu_time;
          ok;
        ]
    done;
    Mgacc.Table.print t;
    Ok ()
  with
  | Mgacc.Loc.Error (loc, msg) -> Error (Printf.sprintf "%s: %s" (Mgacc.Loc.to_string loc) msg)
  | Mgacc.Launch.Window_violation { array; index; gpu; what } ->
      Error (Printf.sprintf "localaccess violation on GPU %d: array %s index %d (%s)" gpu array index what)
  | Mgacc.View.Bounds { name; index; length } -> Error (bounds_error name index length)

(* ---------------- serve ---------------- *)

(* Replay a job-trace file through the fleet scheduler: each line is
   "<submit-seconds> <tenant> <program.c>" (paths relative to the trace
   file). Prints per-job admission results and the fleet summary. *)
let write_file path contents = Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let serve_cmd trace_file machine_name policy_name gpus max_concurrent budget_mb watchdog keep_cold
    json_out metrics_out events_out trace_json verbose =
  setup_logs verbose;
  let ( let* ) = Result.bind in
  let* spec, fresh_machine = machine_of machine_name in
  let* () = gpus_consistent ~gpus spec in
  let* () = at_least "max-concurrent" 1 max_concurrent in
  let* () = at_least "mem-budget-mb" 0 budget_mb in
  let* policy = Mgacc.Fleet.policy_of_string policy_name in
  try
    let jobs = Mgacc.Fleet_job.load_trace trace_file in
    if jobs = [] then Error (Printf.sprintf "%s: no jobs in trace" trace_file)
    else begin
      let machine = fresh_machine () in
      let config =
        Mgacc.Fleet.configure ~policy
          ?num_gpus:(if gpus = 0 then None else Some gpus)
          ~max_concurrent
          ?mem_budget:(if budget_mb = 0 then None else Some (budget_mb * 1024 * 1024))
          ?watchdog_seconds:(if watchdog <= 0.0 then None else Some watchdog)
          ~keep_warm:(not keep_cold) machine
      in
      let outcome = Mgacc.Fleet.run config jobs in
      if json_out then print_endline (Mgacc.Fleet.to_json outcome)
      else begin
        Format.printf "%a@." Mgacc.Fleet.pp_outcome outcome;
        if verbose then
          List.iter
            (fun (r : Mgacc.Fleet.job_result) ->
              Format.printf "job %2d %a@." r.Mgacc.Fleet.spec.Mgacc.Fleet_job.id Mgacc.Report.pp
                r.Mgacc.Fleet.report)
            outcome.Mgacc.Fleet.jobs
      end;
      (match metrics_out with
      | Some path ->
          write_file path (Mgacc.Metrics.to_prometheus outcome.Mgacc.Fleet.metrics);
          Format.eprintf "metrics written to %s@." path
      | None -> ());
      (match events_out with
      | Some path ->
          write_file path (Mgacc.Metrics.events_to_jsonl outcome.Mgacc.Fleet.metrics);
          Format.eprintf "events written to %s@." path
      | None -> ());
      (match trace_json with
      | Some path ->
          write_file path
            (Mgacc.Trace.to_chrome_json ~process_name:"mgacc fleet" outcome.Mgacc.Fleet.trace);
          Format.eprintf "fleet trace written to %s (load in chrome://tracing or perfetto)@." path
      | None -> ());
      Ok ()
    end
  with
  | Mgacc.Loc.Error (loc, msg) -> Error (Printf.sprintf "%s: %s" (Mgacc.Loc.to_string loc) msg)
  | Mgacc.Fleet.Deadlock { job; reason } ->
      Error (Printf.sprintf "admission deadlock: job %d: %s" job reason)
  | Failure msg | Sys_error msg -> Error msg

(* ---------------- check ---------------- *)

let check_cmd file =
  let ( let* ) = Result.bind in
  let* program = read_program file in
  try
    let plans = Mgacc.compile program in
    Format.printf "%s: %d parallel loop(s)@.@." file (Mgacc.Program_plan.loop_count plans);
    List.iter
      (fun plan ->
        let loop = plan.Mgacc.Kernel_plan.loop in
        Format.printf "loop %d at %s (var %s):@." loop.Mgacc.Loop_info.loop_id
          (Mgacc.Loc.to_string loop.Mgacc.Loop_info.loop_loc)
          loop.Mgacc.Loop_info.loop_var;
        List.iter
          (fun c ->
            Format.printf "  %a%s%s@." Mgacc.Array_config.pp c
              (if Mgacc.Kernel_plan.needs_miss_check plan c.Mgacc.Array_config.array then
                 " [miss-checked]"
               else "")
              (if Mgacc.Kernel_plan.layout_transformed plan c.Mgacc.Array_config.array then
                 " [transposed]"
               else ""))
          plan.Mgacc.Kernel_plan.configs;
        Format.printf "@.")
      (Mgacc.Program_plan.all_plans plans);
    Ok ()
  with Mgacc.Loc.Error (loc, msg) ->
    Error (Printf.sprintf "%s: %s" (Mgacc.Loc.to_string loc) msg)

(* ---------------- pretty ---------------- *)

let pretty_cmd file =
  Result.map (fun p -> print_string (Mgacc.Pretty.program_to_string p)) (read_program file)

(* ---------------- cmdliner wiring ---------------- *)

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"mini-C source")

let exits_of = function Ok () -> 0 | Error msg -> Printf.eprintf "accc: %s\n" msg; 1

let machine_doc =
  "a preset (desktop, desktop-mixed, supernode, cluster) or a generative topology spec: \
   cluster:NxM, fattree:NxM[:OVERSUB], multirail:NxM[:RAILS] or nvmesh:NxM (N nodes of M GPUs \
   each, e.g. fattree:8x4)"

let run_term =
  let machine =
    Arg.(value & opt string "desktop" & info [ "machine"; "m" ] ~docv:"SPEC" ~doc:machine_doc)
  in
  let variant =
    Arg.(value & opt string "acc" & info [ "variant"; "v" ] ~docv:"V" ~doc:"acc, openmp or seq")
  in
  let gpus = Arg.(value & opt int 0 & info [ "gpus"; "g" ] ~docv:"N" ~doc:"GPU count (default: all)") in
  let schedule =
    Arg.(value & opt string "static"
         & info [ "schedule" ] ~docv:"POLICY"
             ~doc:"iteration partitioning: static (equal split), proportional or adaptive")
  in
  (* One flag per mode switch, named, spelled and documented by
     [Rt_config.switches]; the term yields the (switch, spelling) pairs. *)
  let settings =
    List.fold_right
      (fun (sw : Mgacc.Rt_config.switch) rest ->
        let spelling =
          Arg.(value & opt string (List.hd sw.spellings)
               & info [ sw.name ] ~docv:(String.concat "|" sw.spellings) ~doc:sw.doc)
        in
        Term.(const (fun v rest -> (sw.name, v) :: rest) $ spelling $ rest))
      Mgacc.Rt_config.switches (Term.const [])
  in
  let chunk = Arg.(value & opt int 1024 & info [ "chunk-kb" ] ~docv:"KB" ~doc:"dirty-bit chunk size") in
  let no_dist = Arg.(value & flag & info [ "no-distribution" ] ~doc:"ignore localaccess placement") in
  let no_layout = Arg.(value & flag & info [ "no-layout-transform" ] ~doc:"disable transposition") in
  let no_misscheck = Arg.(value & flag & info [ "no-misscheck-elim" ] ~doc:"always check writes") in
  let single_level = Arg.(value & flag & info [ "single-level-dirty" ] ~doc:"one-level dirty bits") in
  let dump = Arg.(value & opt_all string [] & info [ "dump" ] ~docv:"ARRAY" ~doc:"print array head") in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"print the execution Gantt chart") in
  let verbose = Arg.(value & flag & info [ "verbose"; "d" ] ~doc:"debug logging of runtime decisions") in
  let trace_json =
    Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE" ~doc:"write a Chrome trace-event file")
  in
  let blame =
    Arg.(value & flag
         & info [ "blame" ]
             ~doc:"print the critical-path blame tables: per-category exposed/hidden time and \
                   the top (category, label) rows of the makespan (included in --json)")
  in
  let check_results =
    Arg.(value & flag & info [ "check" ] ~doc:"validate results against the sequential reference")
  in
  let json_report =
    Arg.(value & flag
         & info [ "json" ] ~doc:"print the report as one JSON object (includes coherence counters)")
  in
  let wall_profile =
    Arg.(value & flag
         & info [ "wall-profile" ]
             ~doc:"print the run's host wall time by layer (parse, plan, host code, each \
                   loop-hook phase) to stderr")
  in
  Term.(
    const (fun file m v g sch st c nd nl nm sl d tr tj bl js ck wp vb ->
        exits_of (run_cmd file m v g sch st c nd nl nm sl d tr tj bl js ck wp vb))
    $ file_arg $ machine $ variant $ gpus $ schedule $ settings $ chunk $ no_dist $ no_layout
    $ no_misscheck $ single_level $ dump $ trace $ trace_json $ blame $ json_report $ check_results
    $ wall_profile $ verbose)

let check_term = Term.(const (fun file -> exits_of (check_cmd file)) $ file_arg)

let serve_term =
  let trace_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE"
         ~doc:"job trace: one '<submit-seconds> <tenant> <program.c>' per line")
  in
  let machine =
    Arg.(value & opt string "cluster"
         & info [ "machine"; "m" ] ~docv:"SPEC" ~doc:machine_doc)
  in
  let policy =
    Arg.(value & opt string "fifo"
         & info [ "policy" ] ~docv:"P"
             ~doc:"admission order: fifo, sjf (shortest job first, roofline-estimated) or fair \
                   (least-service tenant first)")
  in
  let gpus = Arg.(value & opt int 0 & info [ "gpus"; "g" ] ~docv:"N" ~doc:"GPUs per job (default: all)") in
  let max_concurrent =
    Arg.(value & opt int 1 & info [ "max-concurrent" ] ~docv:"N" ~doc:"jobs admitted at once")
  in
  let budget =
    Arg.(value & opt int 0
         & info [ "mem-budget-mb" ] ~docv:"MB"
             ~doc:"admission memory budget (default: the machine's total device memory)")
  in
  let watchdog =
    Arg.(value & opt float 0.0
         & info [ "watchdog" ] ~docv:"SECONDS"
             ~doc:"fail loudly if a job queues past this simulated time (default: effectively off)")
  in
  let keep_cold =
    Arg.(value & flag
         & info [ "no-warm-pool" ]
             ~doc:"release device memory at job end instead of keeping warm pools")
  in
  let json_out = Arg.(value & flag & info [ "json" ] ~doc:"print the fleet outcome as JSON") in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"write fleet metrics (queue depth, resident bytes, per-tenant service, \
                   evictions) as Prometheus text exposition")
  in
  let events_out =
    Arg.(value & opt (some string) None
         & info [ "events" ] ~docv:"FILE"
             ~doc:"write the admission-loop event log (submit/admit/finish) as JSONL")
  in
  let trace_json =
    Arg.(value & opt (some string) None
         & info [ "trace-json" ] ~docv:"FILE"
             ~doc:"write a fleet-level Chrome trace-event Gantt: one row per tenant (queued and \
                   run spans) and one per GPU")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose"; "d" ]
             ~doc:"debug logging of fleet decisions, plus one report line per completed job")
  in
  Term.(
    const (fun tr m p g mc b w kc js mo eo tj vb ->
        exits_of (serve_cmd tr m p g mc b w kc js mo eo tj vb))
    $ trace_arg $ machine $ policy $ gpus $ max_concurrent $ budget $ watchdog $ keep_cold
    $ json_out $ metrics_out $ events_out $ trace_json $ verbose)

let scale_term =
  let machine =
    Arg.(value & opt string "desktop" & info [ "machine"; "m" ] ~docv:"SPEC" ~doc:machine_doc)
  in
  Term.(const (fun file m -> exits_of (scale_cmd file m)) $ file_arg $ machine)
let pretty_term = Term.(const (fun file -> exits_of (pretty_cmd file)) $ file_arg)

let () =
  let run = Cmd.v (Cmd.info "run" ~doc:"compile and execute a program") run_term in
  let check = Cmd.v (Cmd.info "check" ~doc:"show the translator's plans") check_term in
  let serve =
    Cmd.v
      (Cmd.info "serve" ~doc:"replay a multi-tenant job trace through the fleet scheduler")
      serve_term
  in
  let scale = Cmd.v (Cmd.info "scale" ~doc:"OpenMP baseline + every GPU count, with verification") scale_term in
  let pretty = Cmd.v (Cmd.info "pretty" ~doc:"pretty-print the program") pretty_term in
  let main =
    Cmd.group
      (Cmd.info "accc" ~version:"1.0.0" ~doc:"multi-GPU OpenACC compiler on a simulated machine")
      [ run; check; serve; scale; pretty ]
  in
  exit (Cmd.eval' main)
