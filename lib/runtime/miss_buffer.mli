(** Write-miss buffers for distributed arrays (paper §IV-D-2).

    When a kernel writes an element outside its GPU's owned block, the
    translator-inserted check routes the (index, value) pair here instead.
    After the kernel, the communication manager ships the records to the
    owning GPUs and replays them there. The buffer lives in the writing
    GPU's [`System] memory, in 64 KiB pages; the device's [`System] peak
    is what Fig. 9 charges.

    Records are kept in unboxed columns (an int array of indices and an
    array of values of the array's element type) that grow by doubling and
    are kept across {!drain}, so recording a miss allocates nothing,
    amortized. A buffer holds the records of one array, so of one element
    type: a double array records with {!record_f}, an int array with
    {!record_i}. *)

type t

val create : Mgacc_gpusim.Memory.t -> elem_bytes:int -> t

val record_f : t -> int -> float array -> int -> unit
(** [record_f t i bank s] records a write of [bank.(s)] to element [i];
    the double never leaves a float array. *)

val record_i : t -> int -> int -> unit
val count : t -> int
val is_empty : t -> bool

val index : t -> int -> int
(** [index t k] is the element index of the [k]th record ([0 <= k <
    count t]), in recording order (replay must preserve program order per
    GPU). *)

val float_value : t -> int -> float
val int_value : t -> int -> int
(** The [k]th record's value, from a buffer filled by {!record_f} or
    {!record_i} respectively. *)

val drain : t -> unit
(** Clear after replay; releases the accounted memory. *)

val release : t -> unit
(** Free all accounted memory (end of array lifetime). *)
