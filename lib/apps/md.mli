(** MD: Lennard-Jones force computation with fixed-size neighbor lists
    (modeled on the SHOC MD benchmark the paper uses).

    One parallel loop, one kernel execution. [localaccess] is declared on
    the neighbor-list array (stride [max_neighbors]) and the force array
    (stride 3); positions are gathered through the neighbor list, so they
    stay replicated — and being read-only, they cause no inter-GPU
    communication at all, which is why the paper reports zero GPU-GPU
    traffic for MD. *)

type params = { atoms : int; max_neighbors : int; seed : int }

val default_params : params
(** Scaled down for interpreted execution (8192 atoms x 32 neighbors). *)

val paper_params : params
(** The paper's SHOC input: 73728 atoms x 128 neighbors (~40 MB). *)

val app : params -> App_common.t

val run_cuda : machine:Mgacc.Machine.t -> params -> float array * Mgacc.Report.t
(** Hand-written single-GPU CUDA baseline; returns the force array and the
    timing report. Inputs are regenerated identically to the mini-C
    source. *)

val run_cuda_multi :
  machine:Mgacc.Machine.t -> gpus:int -> params -> float array * Mgacc.Report.t
(** Hand-written *multi-GPU* CUDA: the expert manually replicates the
    positions, splits the neighbor lists and forces, overlaps the loads,
    and gathers the force blocks — everything the paper's runtime automates
    (§II-B). The gap between this and the proposal on the same GPU count is
    the runtime's overhead. *)
