(** Static partitioner: seed per-GPU iteration shares from the roofline.

    Given the machine's device specs and a per-iteration cost estimate of
    the kernel at hand (the translator's static hint, or a measured
    record), predict each GPU's sustained iteration rate with the same
    roofline model the simulator charges ({!Mgacc_gpusim.Kernel_cost}) and
    normalize the rates into a weight vector. On a homogeneous machine the
    prediction is identical across devices and the caller should fall back
    to the paper's equal split — {!homogeneous} detects that case
    exactly. *)

val homogeneous : Mgacc_gpusim.Machine.t -> num_gpus:int -> bool
(** All of the first [num_gpus] devices share one spec. *)

val uniform : int -> float array
(** [uniform n] is [n] equal weights summing to 1. *)

val quantize : ?grid:int -> float array -> float array
(** Snap weights to multiples of [1/grid] (default 64, at least one unit
    per device) by largest-remainder apportionment. Quantization is
    spatial hysteresis: loops whose cost vectors differ only slightly get
    the {e same} split, so a distributed array shared between them reuses
    one partitioning instead of reshaping at every alternation. *)

val seed_weights :
  Mgacc_gpusim.Machine.t ->
  num_gpus:int ->
  iterations:int ->
  threads_per_iter:int ->
  iter_cost:Mgacc_gpusim.Cost.t ->
  float array
(** Normalized and {!quantize}d {!device_rates}; exactly {!uniform} on a
    homogeneous machine. *)

val estimate_launch_seconds :
  Mgacc_gpusim.Machine.t ->
  num_gpus:int ->
  iterations:int ->
  threads_per_iter:int ->
  iter_cost:Mgacc_gpusim.Cost.t ->
  float
(** Roofline duration of one launch under a perfect split: iterations
    over the summed {!device_rates}. The fleet's shortest-job-first
    policy ranks un-measured jobs by the sum of these over a program's
    kernels — only the relative order matters. *)

val normalize : ?min_share:float -> float array -> float array
(** Scale nonnegative weights to sum to 1, clamping each share to at least
    [min_share] (default 0.01) so no device starves out of the feedback
    loop. Raises [Invalid_argument] on an all-zero or negative vector. *)
