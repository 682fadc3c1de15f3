(** Roofline timing model for simulated GPU kernels.

    A launch's duration is the maximum of its arithmetic time and its memory
    time (they overlap on real hardware), divided by an occupancy factor
    when there are too few threads to hide latency, plus a fixed launch
    overhead. Random accesses are charged one full memory transaction each
    (32 B on Fermi), which is how uncoalesced gathers behave. *)

val memory_time : Spec.gpu -> Cost.t -> float
(** Device-memory time at full occupancy, seconds. Exported for "kernel cost:
    broadcast discount" and "kernel cost: L2 hit ratio monotone", which
    compare memory terms; {!duration} takes their max with the compute time
    and adds launch overhead, which hides the ratio. *)

val duration : Spec.gpu -> threads:int -> Cost.t -> float
(** Full launch duration including launch overhead. [threads] is the number
    of logical iterations mapped to the device. *)
