(** Multi-tenant fleet scheduler: admits a queue of compiled programs
    onto one shared simulated machine.

    Jobs arrive at their submit times, wait in an admission queue, and
    execute as re-entrant runtime {!Mgacc_runtime.Session}s on the shared
    [Machine]/[Fabric] — contention between jobs emerges from the
    machine's timelines. Admission is gated by a device-memory ledger
    ({!Admission}): finished jobs may keep their darrays device-resident
    (warm pools) until pressure from a newcomer evicts them, spilling
    dirty data back to the host. Program plans come from a compile-once
    {!Plan_cache} keyed by translator options, machine shape and source. *)

module Machine = Mgacc_gpusim.Machine
module Report = Mgacc_runtime.Report

type policy =
  | Fifo  (** strict submit order *)
  | Sjf  (** shortest job first: measured duration, else roofline estimate *)
  | Fair  (** least-service tenant first (start-time fair queueing) *)

val policy_of_string : string -> (policy, string) result
val policy_name : policy -> string

exception Deadlock of { job : int; reason : string }
(** Admission can never make progress (a job larger than the whole
    budget, or queued past the watchdog). Registered with a printer so
    an uncaught deadlock names the job loudly. *)

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

val configure :
  ?policy:policy ->
  ?num_gpus:int ->
  ?max_concurrent:int ->
  ?mem_budget:int ->
  ?keep_warm:bool ->
  ?watchdog_seconds:float ->
  ?default_footprint:int ->
  Machine.t ->
  config
(** Defaults: FIFO, all GPUs, one job at a time, the machine's total
    device memory as budget, warm pools on, a practically-infinite
    watchdog, 16 MB default footprint. *)

type job_result = {
  spec : Job.spec;
  admit_time : float;
  finish_time : float;
  cache_hit : bool;
  estimate : float;  (** the duration estimate admission ranked it by *)
  report : Report.t;  (** per-job runtime report, queue wait included *)
}

val wait_of : job_result -> float
val latency_of : job_result -> float

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
  metrics : Mgacc_obs.Metrics.t;
      (** fleet-level registry sampled on admission-loop events: queue
          depth, resident bytes, per-tenant service seconds, eviction and
          spill counters, plus the JSONL event log (submit/admit/finish) *)
  trace : Mgacc_sim.Trace.t;
      (** fleet-level Gantt: one row per tenant (queued span flowing into
          the run span) and one per GPU, rebuilt from the job results *)
}

val run : ?cache:Plan_cache.t -> config -> Job.spec list -> outcome
(** Replay the job list to completion (the machine is reset first). Pass
    [cache] to share compiled plans and measured profiles across fleets
    (e.g. to compare policies on a warmed cache). Raises {!Deadlock} when
    admission wedges. *)

val lookup : config -> Plan_cache.t -> name:string -> string -> Plan_cache.entry * bool
(** The plan-cache lookup {!run} makes for a job with this [name] and
    source: keyed by the config's machine shape. Read a measured profile
    through it; a lookup without the machine key misses and returns a
    fresh, unmeasured entry. *)

val static_estimate : Machine.t -> num_gpus:int -> Mgacc_translator.Program_plan.t -> float
(** The SJF fallback: summed roofline duration of the program's kernels. *)

val stats_to_json : stats -> string
val to_json : outcome -> string
val pp_stats : Format.formatter -> stats -> unit
val pp_outcome : Format.formatter -> outcome -> unit
