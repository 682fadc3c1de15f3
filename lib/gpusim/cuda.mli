(** A small virtual CUDA API over the machine simulator.

    This is the layer a hand-written CUDA program would target: device
    malloc/free, synchronous copies, and kernel launches whose functional
    body is an OCaml closure that returns the dynamic cost of the launch.
    The paper's hand-written single-GPU CUDA baselines are written against
    this module, so everything runs on device 0. *)

type context

val init : Machine.t -> context

val now : context -> float
(** The context's simulated clock (host thread time). *)

val malloc_floats : context -> int -> Memory.buf
(** Allocate user data on device 0. *)

val malloc_ints : context -> int -> Memory.buf

val free : context -> Memory.buf -> unit

val memcpy_h2d_floats : context -> dst:Memory.buf -> float array -> unit
(** Synchronous copy: blocks the context clock for the transfer time and
    copies the data. Lengths must match. *)

val memcpy_h2d_ints : context -> dst:Memory.buf -> int array -> unit
val memcpy_d2h_floats : context -> src:Memory.buf -> float array -> unit
val memcpy_d2h_ints : context -> src:Memory.buf -> int array -> unit

val charge_d2h : context -> bytes:int -> label:string -> unit
(** Account a device-to-host transfer of a buffer the caller manages
    outside the simulator (advances the clock, records the span). *)

val launch : context -> threads:int -> label:string -> (unit -> Cost.t) -> unit
(** [launch ctx ~threads ~label body] runs [body] functionally (it mutates
    device buffers and returns the dynamic cost), then advances the clock by
    the simulated kernel duration on device 0. *)
