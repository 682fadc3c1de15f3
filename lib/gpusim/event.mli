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

val gpu_ready : t -> int -> float
(** When GPU [g]'s device data was last fully reconciled. *)

val record : t -> int -> float -> unit
(** Max-join [time] into GPU [g]'s event (no-op if earlier). *)

val record_host : t -> float -> unit
(** Max-join [time] into the host program-order cursor. *)

val barrier : t -> float
(** Collapse everything to the global join, the max over every GPU and
    the host (a bulk-synchronous point, e.g. a data-region exit), and
    return it. *)

val reset : t -> unit
(** Every event back to time 0. A session builds its own event set, so no
    run resets one; "event: barrier collapses, reset restarts" pins it. *)
