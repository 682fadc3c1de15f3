(** Timeline resources for deterministic performance simulation.

    A timeline models an exclusive serial resource (a GPU's compute engine, a
    PCIe link direction, a DMA engine): operations on the same timeline are
    serialized in submission order, operations on different timelines overlap
    freely. An operation becomes eligible at its data-dependency [ready]
    time; it starts at [max ready resource_available] and occupies the
    resource for its duration. This is exactly the semantics of CUDA streams
    that the paper's runtime relies on for asynchronous transfers. *)

type t

val create : string -> t
(** [create name] is a fresh timeline, available at time 0. *)

val name : t -> string

val reserve : t -> ready:float -> duration:float -> float * float
(** [reserve t ~ready ~duration] schedules an operation; returns
    [(start, finish)] and advances the timeline to [finish]. [duration] must
    be non-negative; [ready] is the earliest permissible start. *)

val reset : t -> unit
(** Forget all reservations; the timeline becomes available at 0 again. *)
