(** Half-open integer intervals and normalized interval sets.

    Used throughout the runtime to describe which index ranges of an array a
    GPU reads or writes, and to coalesce transfers: a transfer plan is an
    interval set, and the bytes moved are its total length. *)

type t = { lo : int; hi : int }
(** The half-open interval [\[lo, hi)]. Empty iff [hi <= lo]. *)

val make : int -> int -> t
(** [make lo hi] is [\[lo, hi)]. Any [hi <= lo] is normalized to the canonical
    empty interval. *)

val empty : t
val is_empty : t -> bool
val length : t -> int
val contains : t -> int -> bool
val hull : t -> t -> t
(** Smallest interval containing both arguments. *)

val clamp : t -> lo:int -> hi:int -> t
(** Intersect with [\[lo, hi)]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** [\[lo,hi)]. {!Set.pp} prints with it; the interval tests show their
    failures with it. *)

(** Normalized sets of disjoint, sorted, non-adjacent intervals.

    A normalized set has exactly one representation, so {!Set.equal} is
    structural equality. {!Set.union}, {!Set.inter} and {!Set.diff} are
    single sweeps over both arguments: O(|a| + |b|) time, counted in runs. *)
module Set : sig
  type interval = t
  type t

  val empty : t
  val is_empty : t -> bool
  val of_interval : interval -> t

  val of_list : interval list -> t
  (** Any intervals, in any order, overlapping or not: O(n log n). *)

  val of_sorted_disjoint : interval list -> t
  (** O(n) constructor for input that is already sorted, pairwise disjoint
      and non-adjacent (raises [Invalid_argument] otherwise). Producers
      that emit normalized runs (e.g. bitset scans) use this to skip the
      sort of {!of_list}. *)

  val to_list : t -> interval list
  (** Sorted, disjoint, non-adjacent, all non-empty. *)

  val add : t -> interval -> t
  (** [add t i] is [union t (of_interval i)]: O(|t|). *)

  val union : t -> t -> t
  (** One sorted merge that joins touching runs: O(|a| + |b|). *)

  val inter : t -> t -> t
  (** O(|a| + |b|). *)

  val diff : t -> t -> t
  (** Points of [a] not in [b], by one two-pointer sweep: O(|a| + |b|). *)

  val total_length : t -> int
  val mem : t -> int -> bool
  val subset : t -> t -> bool
  (** [subset a b] iff every point of [a] is in [b]. *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end
