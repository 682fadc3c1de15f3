(** Per-GPU completion-event timelines for the overlap engine.

    An event set records, for every GPU, the simulated time at which that
    device's data last became fully up to date (its kernel finished and
    every incoming transfer targeting it completed), plus a host cursor
    for host-visible synchronization points (scalar-reduction folds,
    copyouts). The overlap engine gates each operation on the *join* of
    exactly the events it depends on — the source GPU's own kernel
    finish, a replay's miss arrivals — instead of a global barrier.

    Events only move forward: {!record} is a max-join, which is what a
    CUDA event wait gives you. *)

type t

val create : num_gpus:int -> t
(** All events start at time 0. *)

val num_gpus : t -> int

val gpu_ready : t -> int -> float
(** When GPU [g]'s device data was last fully reconciled. *)

val host_ready : t -> float
(** The host program-order cursor. Only "event: barrier collapses, reset
    restarts" reads it; {!join} folds it into the GPU cursors, so the host
    cursor alone is visible only here. *)

val record : t -> int -> float -> unit
(** Max-join [time] into GPU [g]'s event (no-op if earlier). *)

val record_host : t -> float -> unit

val join : t -> float
(** The global synchronization point: max over every GPU and the host. *)

val barrier : t -> float
(** Collapse everything to the global join (a bulk-synchronous point,
    e.g. a data-region exit) and return it. *)

val reset : t -> unit
