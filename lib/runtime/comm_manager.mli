(** The inter-GPU communication manager (paper §IV-D).

    Called right after the kernels of a parallel loop complete. Three jobs:

    - {b Replicated arrays}: scan the second-level dirty bits, ship each
      writer's dirty runs to the other replicas, merge element-wise, clear
      the bits.
    - {b Distributed arrays}: drain the write-miss buffers — ship the
      (index, value) records to the owning GPUs and replay them there with
      a small kernel — then refresh stale halo copies from their owners.
    - {b Reduction arrays}: fold the per-GPU partials (gather to GPU 0,
      combine, publish), via {!Reduction.merge}.

    Both coherence policies run the same merges; a policy is three
    choices. Eager coherence (the paper's) takes the whole array as every
    destination's read window, ships dirty chunks with their first-level
    bits (the whole array and bit array under single-level dirty bits)
    and broadcasts a reduction result as a star from GPU 0. Lazy
    coherence takes the next reader's window, ships ranged runs, defers
    the rest, and broadcasts down a binomial tree or defers (see
    docs/COHERENCE.md).

    All movement is returned as {e timed op descriptors}: each op names
    the producing GPU (the transfer's source endpoint), the consuming
    GPU, the array it belongs to and its dependency class, so the caller
    can gate it on the producer's own kernel-finish event instead of a
    global barrier (see docs/OVERLAP.md). Replay and combine kernels come
    back keyed by (GPU, array) so each can be gated on the arrival of
    exactly its own inputs. The runtime's barrier gate ships the same
    descriptors in one bulk batch — the functional merges performed here
    are identical either way. *)

module Fabric = Mgacc_gpusim.Fabric
module Cost = Mgacc_gpusim.Cost

type op_kind =
  | Dirty_chunk  (** replicated-array dirty chunks, staged both ends *)
  | Miss_ship  (** write-miss records headed for their owner *)
  | Halo_segment  (** owner block -> stale halo copy *)
  | Red_gather  (** reduction partial -> GPU 0 *)
  | Red_bcast  (** combined reduction result -> replica *)

type op = {
  dir : Fabric.direction;  (** producer and consumer endpoints *)
  bytes : int;
  tag : string;
  array : string;
  kind : op_kind;
  round : int;
      (** the collective planner's level for a lazy-coherence
          {!Red_bcast} op under a kept tree: its binomial-tree round (the
          plan gates each edge on its source's arrival); 0 everywhere
          else *)
  group : int;
      (** collective group id: ops sharing a non-negative [group] carry
          the {e same payload} from one root to distinct destinations (a
          logical broadcast), so a planner may reshape them into ring or
          hierarchical schedules without changing what any destination
          receives. [-1] marks ops whose payload is unique to their
          destination (window-filtered ships, misses, halos, gathers) —
          those must stay point-to-point. Set only where content equality
          is structurally guaranteed, never inferred from byte counts. *)
}

val equal_ops : op list -> op list -> bool
(** Structural equality of op lists, compared field by field at each
    field's own type (strings with [String.equal]); the runtime's
    collective plan reuse check (docs/MODEL.md, "Collectives"). *)

type gpu_kernel = {
  gpu : int;
  array : string;
  cost : Cost.t;
  label : string;
}
(** A replay kernel (gated on the owner's incoming {!Miss_ship} arrivals)
    or a reduction combine kernel (gated on the array's {!Red_gather}
    arrivals). *)

type consumer_window =
  | Cw_none  (** no future device read: defer everything *)
  | Cw_all
      (** eager coherence, or an unknown or whole-array consumer: ship
          all dirty runs *)
  | Cw_windows of Mgacc_util.Interval.Set.t array
      (** the next reader's predicted per-GPU read windows *)

type result = {
  ops : op list;
  replays : gpu_kernel list;
  combines : gpu_kernel list;
  scans : (int * string * float) list;
      (** per-(writing GPU, array) host-side dirty-bit scan seconds; an
          op sourced at GPU [g] for array [a] may not start before [g]'s
          kernel finish plus this scan *)
  scan_seconds : float;  (** total of [scans] (the barrier gate charges it serially) *)
  coh : (string * int * int) list;
      (** per-array coherence traffic (replicated merges and reductions
          only): (array, bytes shipped, bytes deferred). Eager mode
          reports its shipped bytes with zero deferred. *)
}

val halo_exchange : Rt_config.t -> Darray.t -> op list
(** Refresh every stale halo copy of a distributed array from its owners,
    performing the functional copies immediately and returning one
    {!Halo_segment} op per (owner, destination) segment — a halo interval
    spanning several owners yields several ops. No-op (and no ops) when the
    array is not distributed. A run calls it inside {!reconcile}, which mixes
    its ops with the launch's other ops; "comm: halo interval spanning several
    owners" calls it alone to see one exchange. *)

val reconcile :
  Rt_config.t ->
  Mgacc_translator.Kernel_plan.t ->
  get_darray:(string -> Darray.t) ->
  reductions:(string * Reduction.t) list ->
  wrote:(string -> bool) ->
  next_window:(string -> consumer_window) ->
  result
(** [wrote name] says whether any GPU actually executed writes to the array
    in this launch (empty iteration ranges write nothing). [next_window]
    supplies the next consumer's predicted read window per array; it is
    only consulted under lazy coherence (eager coherence is the same
    reconciliation with [Cw_all] for every array). *)
