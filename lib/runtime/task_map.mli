(** Task mapping: splitting a parallel iteration space over GPUs.

    The paper's prototype divides the iterations equally (§IV-B-2); the
    remainder is spread one extra iteration at a time over the leading
    GPUs, so sizes differ by at most one. *)

type range = { start_ : int; stop_ : int }
(** Half-open iteration range [\[start_, stop_)]. *)

val length : range -> int

val split : lower:int -> upper:int -> parts:int -> range array
(** [split ~lower ~upper ~parts] covers [\[lower, upper)] with [parts]
    contiguous ranges (possibly empty when there are more parts than
    iterations). Raises [Invalid_argument] when [parts <= 0] or
    [upper < lower]. *)

val split_weighted : lower:int -> upper:int -> weights:float array -> range array
(** [split_weighted ~lower ~upper ~weights] covers [\[lower, upper)] with
    one contiguous range per weight, sized by largest-remainder rounding of
    the normalized weights (the scheduler's arbitrary splits). Equal
    weights reproduce {!split} exactly. Raises [Invalid_argument] on an
    empty, negative, non-finite or all-zero weight vector, or when
    [upper < lower]. *)

val window :
  range -> stride:int -> left:int -> right:int -> max_len:int -> Mgacc_util.Interval.t
(** The element window a GPU needs for a [localaccess] array given its
    iteration range: [\[stride*start - left, stride*stop + right)] clamped
    to [\[0, max_len)]. Empty iteration ranges give empty windows. *)

val affine_window : range -> coeff:int -> cmin:int -> cmax:int -> Mgacc_util.Interval.t
(** The elements a GPU reads under an affine read summary (every read is
    [coeff*i + c] with [c] in [\[cmin, cmax\]]) given its iteration
    range: [\[coeff*start + cmin, coeff*(stop-1) + cmax\]] for
    [coeff >= 0], the mirror image otherwise, with the low end clamped
    at 0. Empty iteration ranges give empty windows. *)
