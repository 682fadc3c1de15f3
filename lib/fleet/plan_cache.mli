(** Compile-once program-plan cache, keyed structurally by (translator
    options, machine shape, source text).

    Repeated submissions of the same program text (with the same
    translator options, on the same machine shape) reuse the first
    compilation's [Program_plan] verbatim — a cache hit returns the
    {e same} plan value, physically.
    Entries also carry the fleet's measured execution profile, feeding
    the shortest-job-first estimator and the admission ledger. *)

module Kernel_plan = Mgacc_translator.Kernel_plan
module Program_plan = Mgacc_translator.Program_plan

type entry = {
  plans : Program_plan.t;
  mutable measured_seconds : float option;
      (** last measured execution duration of this program in the fleet *)
  mutable footprint_bytes : int option;
      (** last measured device-memory footprint (admission ledger) *)
}

type t

val create : unit -> t

val lookup :
  ?options:Kernel_plan.options -> ?machine:string -> ?name:string -> t -> string -> entry * bool
(** [(entry, hit)] for the key ([options], [machine], source). [machine]
    is the machine shape the plan will run on (canonical spec string or
    machine name; [""], the default, = shape-independent). Every
    translator option is part of the key, so plans built for different
    options, shapes or decompositions never alias. On a miss the source
    is parsed, typechecked and planned, and the fresh entry cached.
    Parse/type errors propagate. *)

val record_measurement : entry -> seconds:float -> footprint_bytes:int -> unit
(** Update the execution profile after a job completes (a non-positive
    footprint leaves the previous measurement in place). *)

val hits : t -> int
val misses : t -> int
val size : t -> int
