(** Device-side state of one host array: the present-table entry.

    A [Darray.t] tracks where the array currently lives (unallocated,
    replicated on every GPU, or block-distributed with halos), keeps the
    actual device storage, and performs the *functional* side of every
    movement immediately while returning transfer descriptors the caller
    charges to the simulated interconnect. Placement transitions flush
    through the host copy; reloads are skipped when the placement and
    windows are unchanged (the data loader's reuse optimization for
    iterative applications). *)

open Mgacc_minic
module Interval = Mgacc_util.Interval

type xfer = { dir : Mgacc_gpusim.Fabric.direction; bytes : int; tag : string }

type tile = {
  trows : Interval.t;  (** owned row block *)
  tcols : Interval.t;  (** owned column block *)
  trow_win : Interval.t;  (** resident rows (owned + row halo) *)
  tcol_win : Interval.t;  (** resident columns (owned + column halo) *)
}
(** 2-D tile of one GPU under a [pr x pc] decomposition of a row-major
    array of [length / stride] rows. The part's buffer holds the packed
    [trow_win x tcol_win] box in row-major order. *)

type part = {
  window : Interval.t;
      (** elements resident on this GPU (owned + halo); for a tiled part
          this is only the *row hull* — use {!part_contains} for precise
          membership *)
  own : Interval.t;  (** exclusively owned block (row hull when tiled) *)
  tile : tile option;  (** present under a 2-D decomposition *)
  buf : Mgacc_gpusim.Memory.buf;
  miss : Miss_buffer.t;
}

type tile_spec = {
  pr : int;  (** row blocks *)
  pc : int;  (** column blocks; [pr * pc = num_gpus] *)
  row_left : int;  (** halo rows above the owned block *)
  row_right : int;  (** halo rows below *)
  col_left : int;  (** halo columns left of the owned block *)
  col_right : int;  (** halo columns right *)
}

type dist_spec = { stride : int; left : int; right : int; tile : tile_spec option }

type dist = {
  parts : part array;
  spec : dist_spec;
  ranges : Task_map.range array;  (** the iteration split that shaped it *)
}

type replica = {
  bufs : Mgacc_gpusim.Memory.buf array;
  mutable dirty : Dirty.t option array;  (** present only under tracking *)
  valid : Interval.Set.t array;
      (** per-GPU validity intervals (lazy coherence): the element ranges
          this replica holds current values for. Invariant: the union
          over all GPUs covers the whole array. Under eager coherence
          every entry stays the full range. *)
}

type state = Unallocated | Replicated of replica | Distributed of dist

type t = {
  name : string;
  elem : Ast.elem_ty;
  length : int;
  host : Mgacc_exec.View.t;
  mutable state : state;
  mutable device_fresh : bool;  (** device holds data newer than the host copy *)
  mutable region_depth : int;
  mutable needs_copyout : bool;
  mutable written_since_halo_sync : bool;
}

val create : Rt_config.t -> name:string -> host:Mgacc_exec.View.t -> t

val elem_bytes : t -> int
val state_name : t -> string

val ensure_replicated : Rt_config.t -> t -> dirty_tracking:bool -> xfer list
(** Make the array fully replicated and valid on every GPU, allocating and
    loading as needed (including a flush through the host on a placement
    change). Adds dirty structures when [dirty_tracking]. *)

val ensure_distributed :
  Rt_config.t -> t -> spec:dist_spec -> ranges:Task_map.range array -> xfer list
(** Make the array block-distributed for the given iteration split,
    reusing the current distribution when the windows are identical.
    Under a non-equal schedule, a live same-spec distribution whose split
    changed (a scheduler rebalance) is re-shaped with direct GPU-to-GPU
    delta transfers instead of a flush through the host. *)

val flush_to_host : Rt_config.t -> t -> xfer list
(** Bring the host copy up to date (no-op if it already is). Device
    state stays allocated and remains valid. Under lazy coherence a
    replicated array first pulls replica 0 fully valid from its peers
    (the returned list then mixes P2p pulls with the D2h copy). *)

val pull_valid : Rt_config.t -> t -> gpu:int -> want:Interval.Set.t -> xfer list
(** Make the intervals of [want] valid on replica [gpu], copying each
    stale range from a peer that holds it (tag ["<name>:pull"], one P2p
    xfer per contiguous run). No-op when the array is not replicated or
    nothing in [want] is stale. Raises if the validity invariant is
    broken (some range valid nowhere). *)

val full_set : t -> Interval.Set.t
(** The whole index range [\[0, length)] as an interval set. *)

val copy_replica_runs : t -> replica -> src:int -> dsts:int list -> Interval.Set.t -> unit
(** Functional copy of every run of the set (absolute element indices)
    from replica [src] into each replica of [dsts], in one pass over the
    runs with every buffer fetched once. The coherence merge fills all
    the destinations that take a writer's whole run set with one call,
    and each destination that takes part of it with one call of its own.
    No transfer descriptor — callers account the traffic. *)

val load_from_host : Rt_config.t -> t -> xfer list
(** Push the host copy into whatever device state exists (used by
    [update device]). No-op when unallocated. *)

val release : Rt_config.t -> t -> xfer list
(** Flush (if needed and [needs_copyout]) and free all device storage. *)

val spill_to_host : Rt_config.t -> t -> xfer list
(** Evict under memory pressure: flush dirty data back to the host view
    (descriptors retagged ["<name>:spill"]) and free all device storage.
    Clean arrays evict for free (writeback semantics). The darray stays
    usable — a later [ensure_replicated]/[ensure_distributed] reloads
    the values from the host copy. *)

val mark_device_written : t -> unit
(** Called after a kernel that wrote the array on any GPU. *)

val mark_halo_synced : t -> unit
(** Called after a halo exchange has refreshed all halo copies. *)

val buf_for : t -> gpu:int -> Mgacc_gpusim.Memory.buf
(** The device buffer backing GPU [gpu] (replica copy or partition). *)

val part_for : t -> gpu:int -> part
(** Raises [Invalid_argument] if not distributed. *)

val replica_of : t -> replica
(** Raises [Invalid_argument] if not replicated. *)

val owner_of : dist -> int -> int
(** The GPU owning a logical element index (tile-aware). *)

val offset_in_part : dist_spec -> part -> int -> int
(** Buffer offset of an absolute element index inside a part (1-D window
    offset, or packed-box offset for tiled parts). The index must be
    resident ({!part_contains}). *)

val part_contains : dist_spec -> part -> int -> bool
(** Whether the element is resident on the part (owned or halo). *)

val part_owns : dist_spec -> part -> int -> bool
(** Whether the element is exclusively owned by the part. *)

val copy_seg_part_to_part : t -> dist_spec -> src:part -> dst:part -> Interval.t -> unit
(** Functional copy of one absolute-index segment between two parts
    through {!offset_in_part}; for tiled parts the segment must stay
    within one row. No transfer descriptor — callers account traffic. *)

val copy_part_to_part : t -> src:part -> dst:part -> Interval.t -> unit
(** 1-D functional copy between two untiled parts' buffers (window
    offsets). *)
