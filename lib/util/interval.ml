type t = { lo : int; hi : int }

let empty = { lo = 0; hi = 0 }
let make lo hi = if hi <= lo then empty else { lo; hi }
let is_empty t = t.hi <= t.lo
let length t = if is_empty t then 0 else t.hi - t.lo
let contains t i = i >= t.lo && i < t.hi
let intersect a b = make (max a.lo b.lo) (min a.hi b.hi)

let hull a b =
  if is_empty a then b
  else if is_empty b then a
  else make (min a.lo b.lo) (max a.hi b.hi)

let clamp t ~lo ~hi = intersect t (make lo hi)
let equal a b = (is_empty a && is_empty b) || (a.lo = b.lo && a.hi = b.hi)

let pp ppf t =
  if is_empty t then Format.fprintf ppf "[)"
  else Format.fprintf ppf "[%d,%d)" t.lo t.hi

module Set = struct
  type interval = t
  type nonrec t = t list
  (* Invariant: sorted by [lo], pairwise disjoint and non-adjacent,
     every element non-empty. *)

  (* The outer interval operations, captured before Set shadows the names. *)
  let ivl_is_empty = is_empty
  let ivl_length = length
  let ivl_contains = contains

  let empty = []
  let is_empty t = t = []
  let of_interval i = if ivl_is_empty i then [] else [ i ]
  let to_list t = t

  (* Push [x] onto a reversed, normalized accumulator whose head starts at
     or before [x.lo]: it extends the head when they touch (overlap or
     adjacency), else opens a new run. *)
  let push acc (x : interval) =
    match acc with
    | c :: rest when x.lo <= c.hi -> if x.hi > c.hi then { lo = c.lo; hi = x.hi } :: rest else acc
    | _ -> x :: acc

  let of_list l =
    List.filter (fun i -> not (ivl_is_empty i)) l
    |> List.stable_sort (fun (x : interval) y -> compare x.lo y.lo)
    |> List.fold_left push []
    |> List.rev

  let of_sorted_disjoint l =
    let rec validate = function
      | a :: (b :: _ as rest) ->
          if ivl_is_empty a then invalid_arg "Interval.Set.of_sorted_disjoint: empty interval";
          if a.hi >= b.lo then invalid_arg "Interval.Set.of_sorted_disjoint: not normalized";
          validate rest
      | [ a ] -> if ivl_is_empty a then invalid_arg "Interval.Set.of_sorted_disjoint: empty interval"
      | [] -> ()
    in
    validate l;
    l

  (* One sorted merge by [lo]; [push] joins the runs that touch. *)
  let union a b =
    let rec go acc a b =
      match (a, b) with
      | x :: xs, y :: _ when x.lo <= y.lo -> go (push acc x) xs b
      | _, y :: ys -> go (push acc y) a ys
      | x :: xs, [] -> go (push acc x) xs []
      | [], [] -> List.rev acc
    in
    go [] a b

  let add t i = union t (of_interval i)

  let inter a b =
    let rec go a b acc =
      match (a, b) with
      | [], _ | _, [] -> List.rev acc
      | x :: xs, y :: ys ->
          let i = intersect x y in
          let acc = if ivl_is_empty i then acc else i :: acc in
          if x.hi <= y.hi then go xs b acc else go a ys acc
    in
    go a b []

  (* Two-pointer sweep: each run of [a] is trimmed by the cuts of [b] that
     reach it; a cut ending inside a run leaves the run's right part for
     the next cut. Pieces stay non-adjacent because every cut is non-empty. *)
  let diff a b =
    let rec go acc a b =
      match (a, b) with
      | [], _ -> List.rev acc
      | _, [] -> List.rev_append acc a
      | x :: xs, y :: ys ->
          if y.hi <= x.lo then go acc a ys
          else if x.hi <= y.lo then go (x :: acc) xs b
          else
            let acc = if x.lo < y.lo then { lo = x.lo; hi = y.lo } :: acc else acc in
            if y.hi < x.hi then go acc ({ lo = y.hi; hi = x.hi } :: xs) ys else go acc xs b
    in
    go [] a b

  let total_length t = List.fold_left (fun n i -> n + ivl_length i) 0 t
  let mem t i = List.exists (fun x -> ivl_contains x i) t
  let subset a b = is_empty (diff a b)
  let equal a b = a = b

  let pp ppf t =
    Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";") pp) t
end
