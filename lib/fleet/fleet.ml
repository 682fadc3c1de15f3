module Machine = Mgacc_gpusim.Machine
module Device = Mgacc_gpusim.Device
module Spec = Mgacc_gpusim.Spec
module Fabric = Mgacc_gpusim.Fabric
module Session = Mgacc_runtime.Session
module Acc_runtime = Mgacc_runtime.Acc_runtime
module Rt_config = Mgacc_runtime.Rt_config
module Profiler = Mgacc_runtime.Profiler
module Report = Mgacc_runtime.Report
module Darray = Mgacc_runtime.Darray
module Program_plan = Mgacc_translator.Program_plan
module Kernel_plan = Mgacc_translator.Kernel_plan
module Loop_info = Mgacc_analysis.Loop_info
module Cost_model = Mgacc_sched.Cost_model
module Ast = Mgacc_minic.Ast
module Metrics = Mgacc_obs.Metrics
module Trace = Mgacc_sim.Trace

let log_src = Logs.Src.create "mgacc.fleet" ~doc:"multi-tenant fleet scheduler"

module Log = (val Logs.src_log log_src : Logs.LOG)

type policy = Fifo | Sjf | Fair

let policy_of_string = function
  | "fifo" -> Ok Fifo
  | "sjf" -> Ok Sjf
  | "fair" -> Ok Fair
  | other -> Error (Printf.sprintf "unknown policy %S (fifo|sjf|fair)" other)

let policy_name = function Fifo -> "fifo" | Sjf -> "sjf" | Fair -> "fair"

exception Deadlock of { job : int; reason : string }

let () =
  Printexc.register_printer (function
    | Deadlock { job; reason } ->
        Some (Printf.sprintf "fleet admission deadlock: job %d: %s" job reason)
    | _ -> None)

type config = {
  machine : Machine.t;
  policy : policy;
  num_gpus : int;  (** GPUs each job partitions across *)
  max_concurrent : int;
  mem_budget : int;  (** admission ledger budget, bytes *)
  keep_warm : bool;  (** keep finished jobs' darrays device-resident *)
  watchdog_seconds : float;  (** max simulated queue wait before failing loudly *)
  default_footprint : int;  (** ledger bytes for jobs never measured *)
}

let device_memory_bytes machine =
  let total = ref 0 in
  for g = 0 to Machine.num_gpus machine - 1 do
    total := !total + (Machine.device machine g).Device.spec.Spec.mem_capacity
  done;
  !total

let configure ?(policy = Fifo) ?num_gpus ?(max_concurrent = 1) ?mem_budget ?(keep_warm = true)
    ?(watchdog_seconds = 1e9) ?(default_footprint = 16 * 1024 * 1024) machine =
  let available = Machine.num_gpus machine in
  let num_gpus = Option.value ~default:available num_gpus in
  if num_gpus < 1 || num_gpus > available then invalid_arg "Fleet.configure: bad num_gpus";
  if max_concurrent < 1 then invalid_arg "Fleet.configure: max_concurrent < 1";
  if watchdog_seconds <= 0.0 then invalid_arg "Fleet.configure: watchdog must be positive";
  let mem_budget = Option.value ~default:(device_memory_bytes machine) mem_budget in
  if mem_budget <= 0 then invalid_arg "Fleet.configure: mem_budget must be positive";
  if default_footprint <= 0 then invalid_arg "Fleet.configure: default_footprint must be positive";
  { machine; policy; num_gpus; max_concurrent; mem_budget; keep_warm; watchdog_seconds;
    default_footprint }
[@@ocamlformat "disable"]

(* ---------------- SJF roofline estimate ---------------- *)

let static_trip_count (p : Kernel_plan.t) =
  let loop = p.Kernel_plan.loop in
  match (loop.Loop_info.lower.Ast.edesc, loop.Loop_info.upper.Ast.edesc) with
  | Ast.Int_lit lo, Ast.Int_lit hi when hi > lo -> hi - lo
  | _ -> 65536 (* runtime-sized loop: a nominal count keeps ranking by cost shape *)

let static_estimate machine ~num_gpus plans =
  List.fold_left
    (fun acc p ->
      acc
      +. Cost_model.estimate_launch_seconds machine ~num_gpus ~iterations:(static_trip_count p)
           ~threads_per_iter:(Kernel_plan.thread_multiplier p)
           ~iter_cost:(Kernel_plan.static_iter_cost p))
    0.0 (Program_plan.all_plans plans)

(* ---------------- per-job bookkeeping ---------------- *)

type job_result = {
  spec : Job.spec;
  admit_time : float;
  finish_time : float;
  cache_hit : bool;
  estimate : float;  (** the duration estimate admission ranked it by *)
  report : Report.t;
}

let wait_of r = r.admit_time -. r.spec.Job.submit
let latency_of r = r.finish_time -. r.spec.Job.submit

let slowdown_of r =
  let exec = Float.max 1e-12 (r.finish_time -. r.admit_time) in
  latency_of r /. exec

type tenant_row = {
  tenant : string;
  t_jobs : int;
  t_mean_wait : float;
  t_mean_slowdown : float;
  t_service : float;  (** total execution seconds consumed *)
}

type stats = {
  s_policy : policy;
  job_count : int;
  makespan : float;
  mean_wait : float;
  p95_latency : float;
  throughput : float;  (** jobs per simulated second *)
  fairness : float;  (** Jain's index over per-tenant mean slowdowns *)
  cache_hits : int;
  cache_misses : int;
  evictions : int;
  spilled_bytes : int;
}

type outcome = {
  config : config;
  stats : stats;
  tenants : tenant_row list;
  jobs : job_result list;
  metrics : Metrics.t;
  trace : Trace.t;
}

(* Fleet-level Gantt: one row per tenant (queued span, then run span,
   linked by a flow edge) plus one row per GPU occupied by each job. An
   occupancy span waits on the job's queued span and on the GPU's hand-off
   from the latest earlier-recorded job that released it by admission.
   The spans are rebuilt from the job results, so the fleet trace is a
   schedule view — per-op detail stays in the machine trace. *)
let fleet_trace config jobs =
  let tr = Trace.create () in
  let held = Array.make config.num_gpus [] in
  List.iter
    (fun r ->
      let row = "tenant:" ^ r.spec.Job.tenant in
      let tag = Printf.sprintf "%s#%d" r.spec.Job.name r.spec.Job.id in
      let queued =
        if r.admit_time > r.spec.Job.submit then
          Some
            (Trace.record tr ~resource:row ~category:Trace.Overhead ~label:("queued:" ^ tag)
               ~start:r.spec.Job.submit ~finish:r.admit_time ~bytes:0 ())
        else None
      in
      let causes = Option.to_list queued in
      ignore
        (Trace.record tr ~causes ~resource:row ~category:Trace.Kernel ~label:("run:" ^ tag)
           ~start:r.admit_time ~finish:r.finish_time ~bytes:0 ());
      for g = 0 to config.num_gpus - 1 do
        let handoff =
          List.fold_left
            (fun acc (fin, id) ->
              match acc with
              | Some (f, _) when f >= fin -> acc
              | _ -> if fin <= r.admit_time then Some (fin, id) else acc)
            None held.(g)
        in
        let id =
          Trace.record tr
            ~causes:(causes @ Option.to_list (Option.map snd handoff))
            ~resource:(Printf.sprintf "gpu%d" g)
            ~category:Trace.Kernel ~label:tag ~start:r.admit_time ~finish:r.finish_time ~bytes:0
            ()
        in
        held.(g) <- (r.finish_time, id) :: held.(g)
      done)
    jobs;
  tr

(* Jain's fairness index J(x) = (Σx)² / (n·Σx²): 1 when all tenants see
   the same mean slowdown, 1/n when one tenant absorbs all of it. *)
let jain = function
  | [] -> 1.0
  | xs ->
      let n = float_of_int (List.length xs) in
      let s = List.fold_left ( +. ) 0.0 xs in
      let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
      if s2 <= 0.0 then 1.0 else s *. s /. (n *. s2)

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      let idx = min (n - 1) (max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)) in
      List.nth sorted idx

(* ---------------- the admission/execution loop ---------------- *)

type running = { r_spec : Job.spec; r_admit : float; r_finish : float; r_session : Session.t }

(* Plans are keyed by the machine shape they run on, so every reader of a
   fleet's measured profile must look entries up the way [run] does. *)
let lookup config cache ~name source =
  Plan_cache.lookup ~machine:config.machine.Machine.name ~name cache source

let run ?cache config (specs : Job.spec list) =
  let cache = match cache with Some c -> c | None -> Plan_cache.create () in
  Machine.reset config.machine;
  let hits0 = Plan_cache.hits cache and misses0 = Plan_cache.misses cache in
  let arrivals =
    ref (List.sort (fun (a : Job.spec) b -> compare (a.Job.submit, a.Job.id) (b.submit, b.id)) specs)
  in
  let queue = ref [] in
  let running = ref [] in
  let done_jobs = ref [] in
  let now = ref 0.0 in
  let service = Hashtbl.create 8 in
  (* tenant -> execution seconds consumed *)
  let service_of tenant = Option.value ~default:0.0 (Hashtbl.find_opt service tenant) in
  let job_meta = Hashtbl.create 16 in
  (* job id -> (entry, cache_hit, estimate): each job consults the plan
     cache exactly once, whichever policy looks first *)
  let meta_of (j : Job.spec) =
    match Hashtbl.find_opt job_meta j.Job.id with
    | Some m -> m
    | None ->
        let entry, hit = lookup config cache ~name:j.Job.name j.Job.source in
        let estimate =
          match entry.Plan_cache.measured_seconds with
          | Some s -> s
          | None -> static_estimate config.machine ~num_gpus:config.num_gpus entry.Plan_cache.plans
        in
        let m = (entry, hit, estimate) in
        Hashtbl.replace job_meta j.Job.id m;
        m
  in
  let footprint entry =
    match entry.Plan_cache.footprint_bytes with
    | Some b -> max 1 b
    | None -> config.default_footprint
  in
  let pick jobs =
    let key (j : Job.spec) =
      match config.policy with
      | Fifo -> (0.0, j.Job.submit, float_of_int j.Job.id)
      | Sjf ->
          let _, _, estimate = meta_of j in
          (estimate, j.Job.submit, float_of_int j.Job.id)
      | Fair -> (service_of j.Job.tenant, j.Job.submit, float_of_int j.Job.id)
    in
    match jobs with
    | [] -> None
    | first :: rest ->
        Some (List.fold_left (fun best j -> if key j < key best then j else best) first rest)
  in
  let adm = Admission.create ~budget:config.mem_budget in
  (* Observability: a metrics registry sampled on admission-loop events.
     Everything here observes the schedule — it never influences it. *)
  let m = Metrics.create () in
  let g_queue = Metrics.gauge m ~help:"Jobs waiting for admission" "fleet_queue_depth" in
  let h_queue =
    Metrics.histogram m ~help:"Queue depth sampled at admission-loop events"
      ~buckets:[| 0.; 1.; 2.; 5.; 10.; 20.; 50. |] "fleet_queue_depth_samples"
  in
  let g_resident =
    Metrics.gauge m ~help:"Device bytes reserved (running jobs + warm pools)" "fleet_resident_bytes"
  in
  let h_wait = Metrics.histogram m ~help:"Seconds jobs waited before admission" "fleet_wait_seconds" in
  let c_evict =
    Metrics.counter m ~help:"Warm pools evicted under memory pressure" "fleet_evictions_total"
  in
  let c_spill =
    Metrics.counter m ~help:"Dirty bytes evictions wrote back to the host" "fleet_spilled_bytes_total"
  in
  let c_done = Metrics.counter m ~help:"Jobs run to completion" "fleet_jobs_completed_total" in
  let service_counter tenant =
    Metrics.counter m ~help:"Execution seconds consumed per tenant"
      ~labels:[ ("tenant", tenant) ] "fleet_tenant_service_seconds_total"
  in
  let sample_ledger () =
    Metrics.set g_resident (float_of_int (Admission.active_bytes adm + Admission.warm_bytes adm))
  in
  let sample_queue () =
    let d = float_of_int (List.length !queue) in
    Metrics.set g_queue d;
    Metrics.observe h_queue d
  in
  let prev_evictions = ref 0 and prev_spilled = ref 0 in
  let sync_evictions () =
    let e = Admission.evictions adm and s = Admission.spilled_bytes adm in
    Metrics.inc c_evict (float_of_int (e - !prev_evictions));
    Metrics.inc c_spill (float_of_int (s - !prev_spilled));
    prev_evictions := e;
    prev_spilled := s
  in
  let charge_spills xfers =
    if xfers <> [] then begin
      let reqs =
        List.map
          (fun (x : Darray.xfer) ->
            { Fabric.direction = x.Darray.dir; bytes = x.Darray.bytes; ready = !now; tag = x.Darray.tag })
          xfers
      in
      ignore (Machine.run_transfers config.machine ~label:"fleet:spill" reqs)
    end
  in
  let execute (j : Job.spec) entry =
    let rt =
      Rt_config.make ~num_gpus:config.num_gpus ~keep_resident:config.keep_warm config.machine
    in
    let session = Session.create ~tenant:j.Job.tenant ~start:!now rt entry.Plan_cache.plans in
    Session.set_queue_seconds session (!now -. j.Job.submit);
    ignore (Acc_runtime.execute session);
    let finish = Session.now session in
    let exec_seconds = finish -. !now in
    Hashtbl.replace service j.Job.tenant (service_of j.Job.tenant +. exec_seconds);
    Metrics.inc (service_counter j.Job.tenant) exec_seconds;
    Plan_cache.record_measurement entry ~seconds:exec_seconds
      ~footprint_bytes:(if config.keep_warm then Session.resident_bytes session else 0);
    Log.debug (fun m ->
        m "job %d (%s/%s): admitted at %.6fs, finished at %.6fs" j.Job.id j.Job.tenant j.Job.name
          !now finish);
    { r_spec = j; r_admit = !now; r_finish = finish; r_session = session }
  in
  let rec admit_ready () =
    if List.length !running < config.max_concurrent then
      match pick !queue with
      | None -> ()
      | Some j -> (
          let entry, _, _ = meta_of j in
          match Admission.admit adm ~job:j.Job.id ~bytes:(footprint entry) with
          | Admission.Impossible ->
              raise
                (Deadlock
                   {
                     job = j.Job.id;
                     reason =
                       Printf.sprintf "footprint %d bytes exceeds the fleet budget (%d bytes)"
                         (footprint entry) config.mem_budget;
                   })
          | Admission.Must_wait ->
              if !running = [] then
                raise
                  (Deadlock
                     {
                       job = j.Job.id;
                       reason =
                         Printf.sprintf
                           "cannot fit %d bytes (free %d) and no running job will release any"
                           (footprint entry) (Admission.free_bytes adm);
                     })
              (* else: wait for a completion to free its reservation *)
          | Admission.Admitted spills ->
              charge_spills spills;
              let r = execute j entry in
              queue := List.filter (fun (q : Job.spec) -> q.Job.id <> j.Job.id) !queue;
              running := r :: !running;
              Metrics.event m ~time:!now
                ~fields:[ ("job", float_of_int j.Job.id); ("wait", !now -. j.Job.submit) ]
                "admit";
              Metrics.observe h_wait (!now -. j.Job.submit);
              sync_evictions ();
              sample_ledger ();
              sample_queue ();
              admit_ready ())
  in
  let rec step () =
    (* pull due arrivals into the ready queue *)
    let due, later = List.partition (fun (j : Job.spec) -> j.Job.submit <= !now) !arrivals in
    arrivals := later;
    queue := !queue @ due;
    List.iter
      (fun (j : Job.spec) ->
        Metrics.event m ~time:j.Job.submit ~fields:[ ("job", float_of_int j.Job.id) ] "submit")
      due;
    if due <> [] then sample_queue ();
    admit_ready ();
    (* simulated-time watchdog: a job queued past the limit means the
       service is wedged — fail loudly with the job id *)
    List.iter
      (fun (j : Job.spec) ->
        if !now -. j.Job.submit > config.watchdog_seconds then
          raise
            (Deadlock
               {
                 job = j.Job.id;
                 reason =
                   Printf.sprintf "queued %.3fs, past the %.3fs watchdog" (!now -. j.Job.submit)
                     config.watchdog_seconds;
               }))
      !queue;
    (* advance to the next event: an arrival or a completion *)
    let next_arrival = match !arrivals with [] -> None | j :: _ -> Some j.Job.submit in
    let next_finish =
      List.fold_left
        (fun acc r -> match acc with None -> Some r.r_finish | Some t -> Some (Float.min t r.r_finish))
        None !running
    in
    match (next_arrival, next_finish) with
    | None, None ->
        (match !queue with
        | [] -> () (* drained *)
        | j :: _ ->
            raise
              (Deadlock { job = j.Job.id; reason = "jobs queued but nothing running or arriving" }))
    | _ ->
        let tnext =
          match (next_arrival, next_finish) with
          | Some a, Some f -> Float.min a f
          | Some a, None -> a
          | None, Some f -> f
          | None, None -> assert false
        in
        now := Float.max !now tnext;
        let completed, still =
          List.partition (fun r -> r.r_finish <= !now +. 1e-12) !running
        in
        running := still;
        List.iter
          (fun r ->
            let warm =
              if config.keep_warm then
                Some
                  (fun () ->
                    let xfers = Session.spill_all r.r_session in
                    let bytes =
                      List.fold_left (fun acc (x : Darray.xfer) -> acc + x.Darray.bytes) 0 xfers
                    in
                    Profiler.add_spill (Session.profiler r.r_session) ~bytes;
                    xfers)
              else None
            in
            Admission.release adm ~job:r.r_spec.Job.id ~warm;
            Metrics.event m ~time:r.r_finish
              ~fields:[ ("job", float_of_int r.r_spec.Job.id) ]
              "finish";
            Metrics.inc c_done 1.0;
            sample_ledger ();
            done_jobs := r :: !done_jobs)
          (List.sort (fun a b -> compare (a.r_finish, a.r_spec.Job.id) (b.r_finish, b.r_spec.Job.id))
             completed);
        step ()
  in
  step ();
  (* Reports are snapshotted only now, so post-completion evictions of a
     job's warm pool still land in its own spill counters. *)
  let jobs =
    List.rev_map
      (fun r ->
        let _, hit, estimate = meta_of r.r_spec in
        let variant = Printf.sprintf "fleet/%s(%d)" (policy_name config.policy) config.num_gpus in
        {
          spec = r.r_spec;
          admit_time = r.r_admit;
          finish_time = r.r_finish;
          cache_hit = hit;
          estimate;
          report = Acc_runtime.report ~variant r.r_session;
        })
      !done_jobs
    |> List.sort (fun a b -> compare a.spec.Job.id b.spec.Job.id)
  in
  let job_count = List.length jobs in
  let makespan =
    match jobs with
    | [] -> 0.0
    | j :: _ ->
        let first_submit =
          List.fold_left (fun acc r -> Float.min acc r.spec.Job.submit) j.spec.Job.submit jobs
        in
        let last_finish = List.fold_left (fun acc r -> Float.max acc r.finish_time) 0.0 jobs in
        last_finish -. first_submit
  in
  let mean xs = match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  let tenants =
    List.sort_uniq compare (List.map (fun r -> r.spec.Job.tenant) jobs)
    |> List.map (fun tenant ->
           let mine = List.filter (fun r -> r.spec.Job.tenant = tenant) jobs in
           {
             tenant;
             t_jobs = List.length mine;
             t_mean_wait = mean (List.map wait_of mine);
             t_mean_slowdown = mean (List.map slowdown_of mine);
             t_service =
               List.fold_left (fun acc r -> acc +. (r.finish_time -. r.admit_time)) 0.0 mine;
           })
  in
  let stats =
    {
      s_policy = config.policy;
      job_count;
      makespan;
      mean_wait = mean (List.map wait_of jobs);
      p95_latency = percentile 0.95 (List.map latency_of jobs);
      throughput = (if makespan > 0.0 then float_of_int job_count /. makespan else 0.0);
      fairness = jain (List.map (fun t -> t.t_mean_slowdown) tenants);
      cache_hits = Plan_cache.hits cache - hits0;
      cache_misses = Plan_cache.misses cache - misses0;
      evictions = Admission.evictions adm;
      spilled_bytes = Admission.spilled_bytes adm;
    }
  in
  sync_evictions ();
  sample_ledger ();
  { config; stats; tenants; jobs; metrics = m; trace = fleet_trace config jobs }

(* ---------------- rendering ---------------- *)

let stats_to_json s =
  Printf.sprintf
    {|{"policy":"%s","job_count":%d,"makespan_seconds":%.9g,"mean_wait_seconds":%.9g,"p95_latency_seconds":%.9g,"throughput_jobs_per_s":%.9g,"fairness":%.9g,"cache_hits":%d,"cache_misses":%d,"evictions":%d,"spilled_bytes":%d}|}
    (policy_name s.s_policy) s.job_count s.makespan s.mean_wait s.p95_latency s.throughput
    s.fairness s.cache_hits s.cache_misses s.evictions s.spilled_bytes

let to_json o =
  let tenants =
    String.concat ","
      (List.map
         (fun t ->
           Printf.sprintf
             {|{"tenant":"%s","jobs":%d,"mean_wait_seconds":%.9g,"mean_slowdown":%.9g,"service_seconds":%.9g}|}
             t.tenant t.t_jobs t.t_mean_wait t.t_mean_slowdown t.t_service)
         o.tenants)
  in
  let jobs =
    String.concat ","
      (List.map
         (fun r ->
           Printf.sprintf
             {|{"id":%d,"tenant":"%s","name":"%s","submit":%.9g,"admit":%.9g,"finish":%.9g,"wait_seconds":%.9g,"latency_seconds":%.9g,"cache_hit":%b,"report":%s}|}
             r.spec.Job.id r.spec.Job.tenant r.spec.Job.name r.spec.Job.submit r.admit_time
             r.finish_time (wait_of r) (latency_of r) r.cache_hit (Report.to_json r.report))
         o.jobs)
  in
  Printf.sprintf {|{"machine":"%s","gpus":%d,"stats":%s,"tenants":[%s],"jobs":[%s]}|}
    o.config.machine.Machine.name o.config.num_gpus (stats_to_json o.stats) tenants jobs

let pp_stats ppf s =
  Format.fprintf ppf
    "%s: %d jobs, makespan=%.6fs wait(mean)=%.6fs p95-latency=%.6fs throughput=%.3f jobs/s \
     fairness=%.3f cache %d/%d evictions=%d spilled=%s"
    (policy_name s.s_policy) s.job_count s.makespan s.mean_wait s.p95_latency s.throughput
    s.fairness s.cache_hits
    (s.cache_hits + s.cache_misses)
    s.evictions
    (Mgacc_util.Bytesize.to_string s.spilled_bytes)

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>%a" pp_stats o.stats;
  List.iter
    (fun t ->
      Format.fprintf ppf "@,  tenant %-10s %2d jobs wait(mean)=%.6fs slowdown(mean)=%.3f" t.tenant
        t.t_jobs t.t_mean_wait t.t_mean_slowdown)
    o.tenants;
  List.iter
    (fun r ->
      Format.fprintf ppf "@,  job %2d %-10s %-12s submit=%.3f wait=%.6f latency=%.6f%s"
        r.spec.Job.id r.spec.Job.tenant r.spec.Job.name r.spec.Job.submit (wait_of r)
        (latency_of r)
        (if r.cache_hit then " [cache]" else ""))
    o.jobs;
  Format.fprintf ppf "@]"
