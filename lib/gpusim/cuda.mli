(** A small virtual CUDA API over the machine simulator.

    This is the layer a hand-written CUDA program would target: explicit
    device selection, device malloc/free, synchronous and asynchronous
    copies, and kernel launches whose functional body is an OCaml closure
    that returns the dynamic cost of the launch. The paper's hand-written
    single-GPU CUDA baselines are written against this module. *)

type context

val init : Machine.t -> context
val machine : context -> Machine.t

val set_device : context -> int -> unit
(** Select the current device (like [cudaSetDevice]). The CUDA baselines run
    on device 0, so only "cuda: malloc/memcpy/launch" and "cuda: p2p copies
    and conceptual charges" select a device. *)

val current_device : context -> int
(** Only "cuda: malloc/memcpy/launch" reads it, to check {!set_device}. *)

val now : context -> float
(** The context's simulated clock (host thread time). *)

val malloc_floats : context -> int -> Memory.buf
(** Allocate user data on the current device. *)

val malloc_ints : context -> int -> Memory.buf

val free : context -> Memory.buf -> unit

val memcpy_h2d_floats : context -> dst:Memory.buf -> float array -> unit
(** Synchronous copy: blocks the context clock for the transfer time and
    copies the data. Lengths must match. *)

val memcpy_h2d_ints : context -> dst:Memory.buf -> int array -> unit
val memcpy_d2h_floats : context -> src:Memory.buf -> float array -> unit
val memcpy_d2h_ints : context -> src:Memory.buf -> int array -> unit

val memcpy_p2p_floats : context -> dst:Memory.buf -> src:Memory.buf -> unit
(** Peer copy between devices (whole buffers; lengths must match). No baseline
    copies between peers through this API; "cuda: p2p copies and conceptual
    charges" pins it. *)

val charge_h2d : context -> bytes:int -> label:string -> unit
(** Account a host-to-device transfer of a buffer the caller manages outside
    the simulator (advances the clock, records the span). The baselines charge
    only device-to-host copies; "cuda: p2p copies and conceptual charges" pins
    this one. *)

val charge_d2h : context -> bytes:int -> label:string -> unit

val launch : context -> threads:int -> label:string -> (unit -> Cost.t) -> unit
(** [launch ctx ~threads ~label body] runs [body] functionally (it mutates
    device buffers and returns the dynamic cost), then advances the clock by
    the simulated kernel duration on the current device. *)

val elapsed : context -> float
(** Alias for {!now}: total simulated time consumed so far. *)
