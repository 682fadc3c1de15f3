(** Dynamic operation counters accumulated while a kernel (or a CPU loop)
    executes functionally.

    The executor increments these as it interprets each iteration; the GPU
    roofline model ({!Kernel_cost}) and the CPU model ({!Cpu_model}) turn the
    totals into simulated durations. Counts are totals over all iterations
    of a launch, not per-thread. *)

type t = {
  mutable flops : int;  (** double-precision arithmetic operations *)
  mutable int_ops : int;  (** integer ALU operations (index math, compares) *)
  mutable coalesced_bytes : int;
      (** bytes moved by accesses whose addresses are affine in the thread
          id — adjacent threads touch adjacent words, so the hardware
          coalesces them into full-width transactions *)
  mutable broadcast_bytes : int;
      (** bytes requested by accesses whose address does not depend on the
          thread id: one transaction serves a whole warp on a GPU, and the
          line stays cached on a CPU *)
  mutable random_accesses : int;
      (** number of data-dependent (gather/scatter) accesses; each costs a
          full memory transaction on a GPU and a likely cache miss on a CPU *)
  mutable random_bytes : int;  (** payload bytes of those accesses *)
}

val zero : unit -> t

val scale : t -> int -> t
(** [scale t k] is a fresh record with every counter multiplied by [k]
    (used to extrapolate a sampled execution). *)

val is_zero : t -> bool
