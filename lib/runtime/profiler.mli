(** Tally of one run for the evaluation.

    Simulated seconds live only in the blame ledger: {!charge} records one
    epoch per phase, and the Fig. 8 categories (KERNELS, CPU-GPU,
    GPU-GPU, OVERHEAD) are the ledger's sums ({!Mgacc_obs.Blame.totals}).
    The record holds what is not a time: byte and event counts for the
    analysis tables, the per-array coherence traffic, and the device
    memory peaks split into User and System (Fig. 9). {!Report.of_profiler}
    reads it directly; only the functions below write it, and each
    raises [Invalid_argument] on a negative time, byte count or count. *)

type memory_report = { user_bytes : int; system_bytes : int }
type coh_cell

type t = private {
  ledger : Mgacc_obs.Blame.t;  (** every charged epoch (docs/OBSERVABILITY.md) *)
  coh : (string, coh_cell) Hashtbl.t;
  mutable cpu_gpu_bytes : int;
  mutable gpu_gpu_bytes : int;
  mutable wire_bytes : int;
  mutable collective_rings : int;
  mutable collective_hierarchies : int;
  mutable collective_direct_groups : int;
  mutable collective_segments : int;
  mutable kernel_launches : int;
  mutable loops : int;
  mutable rebalances : int;
  mutable imbalance_sum : float;
  mutable imbalance_samples : int;
  mutable prefetch_hits : int;
  mutable fused_kernels : int;
  mutable contracted_arrays : int;
  mutable relayouts : int;
  mutable spills : int;
  mutable spilled_bytes : int;
  mutable mem : memory_report;
}

val create : unit -> t

val charge :
  t ->
  Mgacc_obs.Blame.category ->
  label:string ->
  exposed:float ->
  hidden:float ->
  bytes:int ->
  spans:int list ->
  unit
(** Charge one epoch with the covered trace [spans] to the ledger, and
    [bytes] to the category's byte counter ([Cpu_gpu] and [Gpu_gpu] only;
    ignored otherwise). This is the only writer of the ledger. *)

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

val add_fused_kernels : t -> count:int -> unit
(** Kernel launches saved by loop fusion at one fused launch: one fused
    group of [k] constituent loops counts [k - 1] per execution. *)

val add_contracted_arrays : t -> count:int -> unit
(** Temporary arrays the fusion pass contracted to per-iteration scalars
    (recorded once per session from the plan, not per launch). *)

val add_relayout : t -> unit
(** One array's transposed device copy materialized (one-time repack for
    a fusion-mode layout transformation). *)

val add_spill : t -> bytes:int -> unit
(** Fleet memory pressure: one eviction of this session's warm device
    data, with [bytes] of dirty data written back to the host (0 when
    everything evicted was clean — writeback semantics). *)

val add_wire_bytes : t -> bytes:int -> unit
(** Bytes that crossed the inter-node network (always 0 on single-node
    machines). A subset of whichever byte counter the transfer landed
    in; the collective planner's whole job is shrinking this. *)

val add_collective : t -> rings:int -> hierarchies:int -> direct_groups:int -> segments:int -> unit
(** One reconciliation's collective-planner decisions (see
    {!Collective.stats}). *)

val record_memory_peaks : t -> Mgacc_gpusim.Machine.t -> num_gpus:int -> unit
(** Capture the current per-class peak usage summed over the first
    [num_gpus] devices. *)
