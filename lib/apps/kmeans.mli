(** KMEANS clustering (modeled on the Rodinia benchmark, kddcup-style
    synthetic input).

    Two parallel loops per iteration: assignment (nearest center, with a
    scalar [+] reduction counting membership changes) and accumulation
    (per-cluster feature sums and counts via [reductiontoarray]). Feature
    vectors carry [localaccess stride(features)] — they distribute across
    GPUs and qualify for the coalescing layout transformation; the centers
    stay replicated and are the array-reduction destination, producing the
    small GPU-GPU traffic the paper describes. *)

type params = {
  points : int;
  features : int;
  clusters : int;
  iterations : int;  (** fixed iteration count (convergence-independent timing) *)
  seed : int;
}

val default_params : params
(** Scaled down: 20000 x 16, 5 clusters, 10 iterations. *)

val paper_params : params
(** kddcup scale: 494020 x 34, 5 clusters, 37 iterations (74 kernels). *)

val app : params -> App_common.t

val run_cuda :
  machine:Mgacc.Machine.t -> params -> float array * int array * Mgacc.Report.t
(** Hand-written single-GPU CUDA baseline; returns (centers, membership)
    and the report. *)
