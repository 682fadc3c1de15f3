(** Deterministic xorshift128+ pseudo-random number generator.

    All randomness in the project flows through this module so that every
    workload generator, simulation and test is reproducible from a seed.
    The state is explicit: there is no hidden global generator. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a non-negative seed. Two generators
    built from the same seed produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Raises
    [Invalid_argument] if [hi < lo]. No run calls it; "xorshift: bounds" pins
    it. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normally distributed sample (Box-Muller). *)

val bool : t -> bool
(** Fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. No run calls it; "xorshift: shuffle is a
    permutation" pins it. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]. Streams of the
    parent and child are independent for practical purposes. *)
