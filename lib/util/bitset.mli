(** Fixed-size mutable bitsets backed by [Bytes].

    The runtime uses these as the first-level dirty-bit arrays: one bit per
    array element, plus fast queries for "is any bit set in this range" and
    enumeration of set runs, which drive the inter-GPU transfer planning. *)

type t

val create : int -> t
(** [create n] is a bitset of [n] bits, all clear. *)

val length : t -> int
val set : t -> int -> unit
val clear : t -> int -> unit
val get : t -> int -> bool
val clear_all : t -> unit
val set_range : t -> lo:int -> hi:int -> unit
(** Set all bits in [\[lo, hi)]. The runtime sets bits one at a time;
    "bitset: ranges" and "bitset matches boolean array" call this to build
    their inputs. *)

val any_in_range : t -> lo:int -> hi:int -> bool
(** True iff some bit in [\[lo, hi)] is set. The runtime never calls it;
    "bitset: ranges" pins it. *)

val count : t -> int
(** Number of set bits. *)

val count_in_range : t -> lo:int -> hi:int -> int
(** Number of set bits in [\[lo, hi)]. The runtime never calls it;
    "bitset: ranges" and "bitset matches boolean array" pin it. *)

val runs : t -> Interval.Set.t
(** The set bits as a normalized interval set of maximal runs. *)

val runs_in_range : t -> lo:int -> hi:int -> Interval.Set.t
(** The set bits in [\[lo, hi)], clamped to the bitset, as maximal runs. The
    scan skips whole aligned 64-bit words that continue the current state
    (clear outside a run, set inside one); in any other word it jumps from one
    run boundary to the next with a count of trailing zeros over aligned
    32-bit words. It allocates nothing beyond its result. The runtime asks
    for the whole bitset through {!runs}; "bitset matches boolean array"
    calls this with arbitrary bounds. *)

val union_into : dst:t -> src:t -> unit
(** [union_into ~dst ~src] ors [src] into [dst]. Lengths must match. The
    runtime never calls it; "bitset: union_into" pins it. *)
