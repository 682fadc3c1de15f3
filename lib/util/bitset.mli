(** Fixed-size mutable bitsets backed by [Bytes].

    The runtime uses these as the first-level dirty-bit arrays: one bit per
    array element, and the enumeration of set runs drives the inter-GPU
    transfer planning. *)

type t

val create : int -> t
(** [create n] is a bitset of [n] bits, all clear. *)

val set : t -> int -> unit
val get : t -> int -> bool
val clear_all : t -> unit

val runs : t -> Interval.Set.t
(** The set bits as a normalized interval set of maximal runs. The scan
    skips whole aligned 64-bit words that continue the current state (clear
    outside a run, set inside one); in any other word it jumps from one run
    boundary to the next with a count of trailing zeros over aligned 32-bit
    words. It allocates nothing beyond its result. *)
