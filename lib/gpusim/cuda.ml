type context = { m : Machine.t; mutable clock : float }

let init m = { m; clock = 0.0 }
let now c = c.clock

let malloc_floats c n = Memory.alloc_float (Machine.device c.m 0).Device.memory `User n
let malloc_ints c n = Memory.alloc_int (Machine.device c.m 0).Device.memory `User n
let free c buf = Memory.free (Machine.device c.m buf.Memory.device_id).Device.memory buf

let copy_h2d c ~bytes ~label =
  c.clock <- Machine.transfer_sync c.m ~ready:c.clock (Fabric.H2d 0) ~bytes ~label

let charge_d2h c ~bytes ~label =
  c.clock <- Machine.transfer_sync c.m ~ready:c.clock (Fabric.D2h 0) ~bytes ~label

let memcpy_h2d_floats c ~dst host =
  let d = Memory.float_data dst in
  if Array.length d <> Array.length host then invalid_arg "Cuda.memcpy_h2d_floats: length";
  Array.blit host 0 d 0 (Array.length host);
  copy_h2d c ~bytes:(8 * Array.length host) ~label:"h2d"

let memcpy_h2d_ints c ~dst host =
  let d = Memory.int_data dst in
  if Array.length d <> Array.length host then invalid_arg "Cuda.memcpy_h2d_ints: length";
  Array.blit host 0 d 0 (Array.length host);
  copy_h2d c ~bytes:(4 * Array.length host) ~label:"h2d"

let memcpy_d2h_floats c ~src host =
  let d = Memory.float_data src in
  if Array.length d <> Array.length host then invalid_arg "Cuda.memcpy_d2h_floats: length";
  Array.blit d 0 host 0 (Array.length d);
  charge_d2h c ~bytes:(8 * Array.length d) ~label:"d2h"

let memcpy_d2h_ints c ~src host =
  let d = Memory.int_data src in
  if Array.length d <> Array.length host then invalid_arg "Cuda.memcpy_d2h_ints: length";
  Array.blit d 0 host 0 (Array.length d);
  charge_d2h c ~bytes:(4 * Array.length d) ~label:"d2h"

(* The kernel serializes on the device, not on the host clock; the
   clock moves to its finish. *)
let launch c ~threads ~label body =
  let cost = body () in
  let _, finish, _ = Machine.launch_kernel_span c.m ~dev:0 ~ready:c.clock ~threads ~label cost in
  c.clock <- finish
