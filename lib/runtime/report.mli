(** Result of one simulated application run: the numbers the paper's
    evaluation plots. *)

type t = {
  machine : string;
  variant : string;  (** e.g. "openmp(12)", "cuda(1)", "proposal(2)" *)
  num_gpus : int;
  total_time : float;  (** parallel-region execution time, seconds *)
  kernel_time : float;
  cpu_gpu_time : float;
  gpu_gpu_time : float;
  overhead_time : float;
  cpu_gpu_bytes : int;
  gpu_gpu_bytes : int;
  wire_bytes : int;
      (** bytes that crossed the inter-node network (0 on one node);
          counted inside whichever byte counter the transfer landed in *)
  collective_rings : int;  (** broadcast groups lowered to ring schedules *)
  collective_hierarchies : int;  (** groups lowered to hierarchical staging *)
  collective_direct_groups : int;  (** eligible groups kept on direct schedules *)
  collective_segments : int;  (** total pipelining segments across planned groups *)
  loops : int;
  launches : int;
  rebalances : int;  (** adaptive-scheduler re-splits committed *)
  mean_imbalance : float;  (** mean per-launch (slowest-fastest)/slowest *)
  hidden_seconds : float;
      (** overlap engine: activity that ran off the critical path; the
          per-category times then sum to the makespan *)
  prefetch_hits : int;  (** launches' arrays already valid on device (reload skipped) *)
  fused_kernels : int;
      (** kernel launches saved by loop fusion ([--fuse on]); 0 with the
          pass off, so default reports are unchanged *)
  contracted_arrays : int;
      (** temporaries the fusion pass contracted to per-iteration scalars
          (they never allocate device storage or reconcile) *)
  relayouts : int;  (** one-time transposed-copy repacks materialized *)
  mem_user_bytes : int;  (** peak user data across used GPUs *)
  mem_system_bytes : int;  (** peak runtime-system data across used GPUs *)
  coh_shipped_bytes : int;  (** replicated/reduction bytes shipped at reconciles *)
  coh_deferred_bytes : int;  (** bytes left stale instead of shipped (lazy coherence) *)
  coh_pulled_bytes : int;  (** deferred bytes later pulled on demand *)
  coh_arrays : (string * int * int * int) list;
      (** per-array (name, shipped, deferred, pulled), sorted by name *)
  queue_seconds : float;
      (** fleet mode: simulated time the job waited in the admission
          queue before execution started (0 for direct runs) *)
  spills : int;  (** fleet mode: warm-pool evictions of this job's data *)
  spilled_bytes : int;  (** dirty bytes those evictions wrote back *)
  blame : Mgacc_obs.Blame.summary option;
      (** critical-path blame attribution ([--blame]); [None] by default
          so existing report output is byte-identical *)
}

val of_profiler : Profiler.t -> machine:string -> variant:string -> num_gpus:int -> t
(** The category seconds and [hidden_seconds] are the ledger's
    {!Mgacc_obs.Blame.totals}; [total_time] is their sum. *)

val with_queue : t -> seconds:float -> t
(** The same report with [queue_seconds] set (clamped at 0). *)

val with_blame : t -> Mgacc_obs.Blame.summary -> t
(** The same report carrying a critical-path blame summary; [to_json]
    gains a ["blame"] sub-object and {!pp_blame} renders the table. *)

val pp_blame : Format.formatter -> t -> unit
(** Render the blame tables when present; prints nothing otherwise
    (kept separate from {!pp} so the one-line report stays stable). *)

val speedup_vs : t -> baseline:t -> float
(** [baseline.total /. t.total]. *)

val coh_elided_bytes : t -> int
(** Deferred bytes never pulled: transfers lazy coherence avoided outright. *)

val metrics : (string * (t -> float)) list
(** The numbers one bench sweep row carries, by JSON key, in row order:
    [seconds] ([total_time]), [gpu_gpu_seconds], [hidden_seconds],
    [gpu_gpu_bytes], [wire_bytes], [prefetch_hits], the coherence
    counters [coh_shipped_bytes], [coh_deferred_bytes],
    [coh_pulled_bytes] and [coh_elided_bytes], the collective counters
    [rings], [hierarchies] and [segments], and the fusion counters
    [fused_kernels], [contracted_arrays] and [relayouts]. *)

val to_json : t -> string
(** One-line JSON object with every field, including a ["coherence"]
    sub-object with totals, elided bytes and the per-array breakdown. *)

val pp : Format.formatter -> t -> unit
