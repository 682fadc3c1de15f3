(** Accounting of simulated time and device memory for the evaluation.

    Time is accumulated per category exactly as the paper's Fig. 8 reports
    it: wall-clock of the load phases (CPU-GPU), of the kernel phases
    (KERNELS), and of the inter-GPU reconciliation phases (GPU-GPU).
    Byte counters and event counts feed the analysis tables, and the
    memory report splits device usage into User and System (Fig. 9). *)

type t

val create : unit -> t

val metrics : t -> Mgacc_obs.Metrics.t
(** The registry backing every scalar counter of this profiler (names
    under the [rt_] prefix; see docs/OBSERVABILITY.md). Rendering it with
    {!Mgacc_obs.Metrics.to_prometheus} exports the run's counters without
    any extra bookkeeping — the profiler accumulates directly into the
    registry cells. *)

val charge :
  t ->
  Mgacc_obs.Blame.category ->
  label:string ->
  exposed:float ->
  hidden:float ->
  bytes:int ->
  spans:int list ->
  unit
(** Charge one epoch: [exposed] seconds to the category, [hidden] (when
    positive) to the hidden counter, [bytes] to the category's byte
    counter ([Cpu_gpu] and [Gpu_gpu] only; ignored otherwise), and one
    epoch with the covered trace [spans] to the blame ledger. This is
    the only writer of those counters and of the ledger, so the ledger's
    category sums reproduce the profiler's bit for bit. *)

val ledger : t -> Mgacc_obs.Blame.t
(** The blame ledger {!charge} writes (docs/OBSERVABILITY.md). *)

val incr_kernel_launches : t -> unit
val incr_loops : t -> unit

val incr_rebalances : t -> unit
(** One committed scheduler re-split (adaptive policy only). *)

val add_imbalance : t -> ratio:float -> unit
(** Per-GPU kernel-time imbalance of one multi-GPU launch:
    [(slowest - fastest) / slowest], in [\[0, 1)]. *)

val add_prefetch_hits : t -> count:int -> unit
(** Arrays whose device copies were still valid at a launch, so the loader
    skipped the reload — under overlap, the previous launch's exchange
    already prefetched exactly these for the next launch. *)

val add_coh : t -> array:string -> shipped:int -> deferred:int -> unit
(** Per-array coherence traffic of one reconciliation: bytes shipped to
    consumers vs. bytes whose transfer was deferred (left stale). *)

val add_coh_pulled : t -> array:string -> bytes:int -> unit
(** Bytes of previously deferred intervals pulled on demand. *)

val coh_rows : t -> (string * int * int * int) list
(** Per-array (shipped, deferred, pulled) byte counters, sorted by array
    name. Bytes deferred but never pulled were elided outright. *)

val cpu_gpu_time : t -> float
val gpu_gpu_time : t -> float
val kernel_time : t -> float
val overhead_time : t -> float
val total_time : t -> float
(** Sum of all categories: the parallel-region execution time. Under the
    overlap engine the categories hold exposed (critical-path) time only,
    so this is the makespan; hidden time is reported separately. *)

val hidden_time : t -> float
(** Overlap engine only: seconds of transfer/kernel activity that ran in
    the shadow of the critical path (the category counters get only the
    exposed share, so they sum to the makespan). *)

val prefetch_hits : t -> int

val add_fused_kernels : t -> count:int -> unit
(** Kernel launches saved by loop fusion at one fused launch: one fused
    group of [k] constituent loops counts [k - 1] per execution. *)

val add_contracted_arrays : t -> count:int -> unit
(** Temporary arrays the fusion pass contracted to per-iteration scalars
    (recorded once per session from the plan, not per launch). *)

val add_relayout : t -> unit
(** One array's transposed device copy materialized (one-time repack for
    a fusion-mode layout transformation). *)

val fused_kernels : t -> int
val contracted_arrays : t -> int
val relayouts : t -> int

val add_spill : t -> bytes:int -> unit
(** Fleet memory pressure: one eviction of this session's warm device
    data, with [bytes] of dirty data written back to the host (0 when
    everything evicted was clean — writeback semantics). *)

val spilled_bytes : t -> int
val spills : t -> int

val add_wire_bytes : t -> bytes:int -> unit
(** Bytes that crossed the inter-node network (always 0 on single-node
    machines). A subset of whichever byte counter the transfer landed
    in; the collective planner's whole job is shrinking this. *)

val add_collective : t -> rings:int -> hierarchies:int -> direct_groups:int -> segments:int -> unit
(** One reconciliation's collective-planner decisions (see
    {!Collective.stats}). *)

val cpu_gpu_bytes : t -> int
val gpu_gpu_bytes : t -> int
val wire_bytes : t -> int
val collective_rings : t -> int
val collective_hierarchies : t -> int
val collective_direct_groups : t -> int
val collective_segments : t -> int
val kernel_launches : t -> int
val loops_executed : t -> int
val rebalances : t -> int

val mean_imbalance : t -> float
(** Mean recorded launch imbalance; 0 when no multi-GPU launch happened. *)

type memory_report = { user_bytes : int; system_bytes : int }

val record_memory_peaks : t -> Mgacc_gpusim.Machine.t -> num_gpus:int -> unit
(** Capture the current per-class peak usage summed over the first
    [num_gpus] devices. *)

val memory : t -> memory_report

val pp : Format.formatter -> t -> unit
