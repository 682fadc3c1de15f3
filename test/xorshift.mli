(** Deterministic xorshift128+ pseudo-random number generator for the
    tests: each random input is reproducible from a seed. The state is
    explicit: there is no hidden global generator. No program draws from
    it: the workloads generate their inputs with their mini-C sources'
    LCG ([Mgacc_apps.Workloads]). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a non-negative seed. Two generators
    built from the same seed produce identical streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normally distributed sample (Box-Muller). *)
