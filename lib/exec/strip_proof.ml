open Form

(* The least and the greatest value a source takes while an operand under
   it runs. A counter runs its body from its init up to its bound (less
   one under [<]), or down to it; a shape [Ctr] is never built with is
   unbounded. A bound at [min_int] or [max_int] wraps past the other end,
   which [fits] refuses too. *)
let rec lower (ints : int array) lo hi = function
  | Const v -> v
  | Fixed s -> ints.(s)
  | Par -> lo
  | Ctr { init; bound; op; step } -> (
      match (op, step) with
      | (Clt | Cle), 1 -> lower ints lo hi init
      | Cgt, -1 -> lower ints lo hi bound + 1
      | Cge, -1 -> lower ints lo hi bound
      | _ -> min_int)

and upper (ints : int array) lo hi = function
  | Const v -> v
  | Fixed s -> ints.(s)
  | Par -> hi - 1
  | Ctr { init; bound; op; step } -> (
      match (op, step) with
      | Clt, 1 -> upper ints lo hi bound - 1
      | Cle, 1 -> upper ints lo hi bound
      | (Cgt | Cge), -1 -> upper ints lo hi init
      | _ -> max_int)

let limit = 1 lsl 30
let[@inline] small x = x > -limit && x < limit
let[@inline] imin (x : int) y = if x < y then x else y
let[@inline] imax (x : int) y = if x > y then x else y

(* Products of two values below 2^30 and a sum with a third stay below
   2^61, so the corners are exact. An operand that never runs may have an
   empty source (its least value above its greatest); whatever is decided
   for it is never used. *)
let extent ints ~lo ~hi ~a ~b ~c ~neg ~last =
  let al = lower ints lo hi a and ah = upper ints lo hi a in
  let bl = lower ints lo hi b and bh = upper ints lo hi b in
  let cl = lower ints lo hi c and ch = upper ints lo hi c in
  if not (small al && small ah && small bl && small bh && small cl && small ch) then
    if last then max_int else min_int
  else
    let p1 = al * bl and p2 = al * bh and p3 = ah * bl and p4 = ah * bh in
    match (last, neg) with
    | false, false -> imin (imin p1 p2) (imin p3 p4) + cl
    | false, true -> imin (imin p1 p2) (imin p3 p4) - ch
    | true, false -> imax (imax p1 p2) (imax p3 p4) + ch
    | true, true -> imax (imax p1 p2) (imax p3 p4) - cl
