(** Device-memory pressure accounting for the fleet.

    The controller tracks a single byte budget (the job-usable fraction
    of the fleet's device memory) against two ledgers: bytes reserved by
    {e active} jobs, and bytes pinned by {e warm} pools — finished jobs'
    device-resident darrays kept alive for a possible resubmission. A
    new job is admitted when its footprint fits the free budget, evicting
    warm pools oldest-first (each eviction runs its spill thunk, which
    writes dirty data back to the host and frees the device storage). *)

module Darray = Mgacc_runtime.Darray

type t

val create : budget:int -> t
(** Raises [Invalid_argument] unless [budget > 0]. *)

type decision =
  | Admitted of Darray.xfer list
      (** reserved; the transfers are the evictions' spill traffic, for
          the caller to charge to the simulated fabric *)
  | Must_wait  (** doesn't fit until an active job releases its bytes *)
  | Impossible  (** larger than the whole budget — can never run *)

val admit : t -> job:int -> bytes:int -> decision

val release : t -> job:int -> warm:(unit -> Darray.xfer list) option -> unit
(** End job [job]'s reservation. With [warm = Some spill] the bytes stay
    reserved as a warm-pool entry that [admit] may later evict via
    [spill]; with [None] they free immediately. Raises
    [Invalid_argument] if the job is not active. *)

val active_bytes : t -> int
val warm_bytes : t -> int
val free_bytes : t -> int
val warm_count : t -> int
(** Warm pools held. No run reads it; "admission: warm eviction runs the
    spill" counts the pools around an eviction, which {!warm_bytes} cannot
    tell apart. *)

val evictions : t -> int
val spilled_bytes : t -> int
(** Dirty bytes written back by evictions so far (clean pools spill for
    free — writeback semantics). *)
