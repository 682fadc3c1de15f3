type t = { gpu : float array; mutable host : float }

let create ~num_gpus =
  if num_gpus <= 0 then invalid_arg "Event.create: num_gpus <= 0";
  { gpu = Array.make num_gpus 0.0; host = 0.0 }

let check t g =
  if g < 0 || g >= Array.length t.gpu then
    invalid_arg (Printf.sprintf "Event: gpu %d out of range" g)

let gpu_ready t g =
  check t g;
  t.gpu.(g)

let record t g time =
  check t g;
  if time > t.gpu.(g) then t.gpu.(g) <- time

let record_host t time = if time > t.host then t.host <- time

let barrier t =
  let m = Array.fold_left Float.max t.host t.gpu in
  Array.fill t.gpu 0 (Array.length t.gpu) m;
  t.host <- m;
  m

let reset t =
  Array.fill t.gpu 0 (Array.length t.gpu) 0.0;
  t.host <- 0.0
