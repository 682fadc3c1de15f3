(** Multicore CPU timing model for the OpenMP baseline.

    The same mini-C program that the compiler offloads is executed
    functionally on the host; this model converts the dynamic operation
    counts into an OpenMP wall-clock estimate: roofline over the node's
    arithmetic throughput and memory bandwidth, derated by the OpenMP
    parallel efficiency, with random accesses charged a partial cache-miss
    cost. *)

val duration : Spec.cpu -> threads:int -> Cost.t -> float
(** Simulated wall-clock seconds of the parallel loop with [threads] OpenMP
    threads. Thread counts beyond the hardware thread count are clamped;
    hyper-threads contribute a small factor, not full cores. *)
