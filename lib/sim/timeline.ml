type t = { name : string; mutable avail : float }

let create name = { name; avail = 0.0 }
let name t = t.name

let reserve t ~ready ~duration =
  if duration < 0.0 then invalid_arg "Timeline.reserve: negative duration";
  if ready < 0.0 then invalid_arg "Timeline.reserve: negative ready time";
  let start = Float.max ready t.avail in
  let finish = start +. duration in
  t.avail <- finish;
  (start, finish)

let reset t = t.avail <- 0.0
