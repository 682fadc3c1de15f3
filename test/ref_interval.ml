(* The fold-based interval-set algebra that [Interval.Set] used before it
   became a set of linear sweeps, kept only as a test oracle and as the
   baseline of the relative perf gate. [add] inserts one interval and
   re-merges the tail; [union] folds [add]; [diff] splits every run of
   [a] by every cut of [b]. Both cost O(|a|·|b|). Sets are plain
   normalized interval lists here; [of_set]/[to_set] convert. *)

module Interval = Mgacc_util.Interval

let of_set = Interval.Set.to_list
let to_set = Interval.Set.of_sorted_disjoint

let add t (i : Interval.t) =
  if Interval.length i = 0 then t
  else
    let rec insert acc = function
      | [] -> List.rev (i :: acc) |> fun l -> merge_from l
      | (x : Interval.t) :: rest ->
          if x.hi < i.lo then insert (x :: acc) rest
          else if i.hi < x.lo then List.rev_append acc (i :: x :: rest) |> merge_from
          else
            let merged = { Interval.lo = min x.lo i.lo; hi = max x.hi i.hi } in
            List.rev_append acc (merged :: rest) |> merge_from
    and merge_from = function
      | (x : Interval.t) :: (y : Interval.t) :: rest when y.lo <= x.hi ->
          merge_from ({ Interval.lo = x.lo; hi = max x.hi y.hi } :: rest)
      | x :: rest -> x :: merge_from rest
      | [] -> []
    in
    insert [] t

let of_list l = List.fold_left add [] l
let union a b = List.fold_left add a b

let diff a b =
  let subtract_one (x : Interval.t) (cut : Interval.t) =
    if Interval.is_empty (Interval.clamp x ~lo:cut.lo ~hi:cut.hi) then [ x ]
    else
      List.filter
        (fun i -> not (Interval.is_empty i))
        [ Interval.make x.lo cut.lo; Interval.make cut.hi x.hi ]
  in
  List.fold_left (fun acc cut -> List.concat_map (fun x -> subtract_one x cut) acc) a b

let subset a b = diff a b = []
