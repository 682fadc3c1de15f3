(** Two-level dirty bits for replicated arrays (paper §IV-D-1).

    The first level holds one bit per element, set by the instrumentation
    the translator adds to every write. The second level holds one bit per
    fixed-size chunk; the communication manager reads only the chunk bits
    to decide which chunks to ship, avoiding a full-array transfer when
    writes are sparse. With the two-level mechanism disabled (ablation),
    the transfer plan degenerates to the whole array plus the whole bit
    array, which is what the paper describes for single-level dirty bits.

    Both bit levels live in the device's [`System] memory and are accounted
    there (Fig. 9). *)

type t

val create :
  Mgacc_gpusim.Memory.t ->
  elem_bytes:int ->
  length:int ->
  chunk_bytes:int ->
  two_level:bool ->
  t
(** Allocates the bitmaps on the given device memory. [chunk_bytes] is the
    payload size of one chunk (the paper uses 1 MB). *)

val mark : t -> int -> unit
(** Record a write to element [i] (sets both bit levels). *)

val any_dirty : t -> bool
val total_chunks : t -> int

val dirty_runs : t -> Mgacc_util.Interval.Set.t
(** Exact dirty element runs (used for the functional merge). *)

val transfer_bytes : t -> int
(** Bytes the reconciliation must ship to one peer under the configured
    mechanism: per dirty chunk its payload plus its slice of first-level
    bits (two-level), or the whole payload plus the whole bit array
    (single-level) — zero when nothing is dirty. O(1): the two-level
    figure is maintained incrementally by {!mark} as chunks turn dirty,
    not recomputed by scanning the chunk bits. *)

val clear : t -> unit
val free : Mgacc_gpusim.Memory.t -> t -> unit
