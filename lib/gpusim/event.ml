type t = { gpu : float array; mutable host : float }

let create ~num_gpus =
  if num_gpus <= 0 then invalid_arg "Event.create: num_gpus <= 0";
  { gpu = Array.make num_gpus 0.0; host = 0.0 }

let num_gpus t = Array.length t.gpu

let check t g =
  if g < 0 || g >= Array.length t.gpu then
    invalid_arg (Printf.sprintf "Event: gpu %d out of range" g)

let gpu_ready t g =
  check t g;
  t.gpu.(g)

let host_ready t = t.host

let record t g time =
  check t g;
  if time > t.gpu.(g) then t.gpu.(g) <- time

let record_host t time = if time > t.host then t.host <- time

let join t = Array.fold_left Float.max t.host t.gpu

let barrier t =
  let m = join t in
  Array.fill t.gpu 0 (Array.length t.gpu) m;
  t.host <- m;
  m

let reset t =
  Array.fill t.gpu 0 (Array.length t.gpu) 0.0;
  t.host <- 0.0
