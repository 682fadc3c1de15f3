type context = { m : Machine.t; mutable dev : int; mutable clock : float }

let init m = { m; dev = 0; clock = 0.0 }
let machine c = c.m

let set_device c i =
  if i < 0 || i >= Machine.num_gpus c.m then invalid_arg "Cuda.set_device";
  c.dev <- i

let current_device c = c.dev
let now c = c.clock

let malloc_floats c n = Memory.alloc_float (Machine.device c.m c.dev).Device.memory `User n
let malloc_ints c n = Memory.alloc_int (Machine.device c.m c.dev).Device.memory `User n
let free c buf = Memory.free (Machine.device c.m buf.Memory.device_id).Device.memory buf

let copy_h2d c ~bytes ~label =
  c.clock <- Machine.transfer_sync c.m ~ready:c.clock (Fabric.H2d c.dev) ~bytes ~label

let copy_d2h c ~bytes ~label =
  c.clock <- Machine.transfer_sync c.m ~ready:c.clock (Fabric.D2h c.dev) ~bytes ~label

let charge_h2d c ~bytes ~label = copy_h2d c ~bytes ~label
let charge_d2h c ~bytes ~label = copy_d2h c ~bytes ~label

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
  copy_d2h c ~bytes:(8 * Array.length d) ~label:"d2h"

let memcpy_d2h_ints c ~src host =
  let d = Memory.int_data src in
  if Array.length d <> Array.length host then invalid_arg "Cuda.memcpy_d2h_ints: length";
  Array.blit d 0 host 0 (Array.length d);
  copy_d2h c ~bytes:(4 * Array.length d) ~label:"d2h"

let memcpy_p2p_floats c ~dst ~src =
  let s = Memory.float_data src and d = Memory.float_data dst in
  if Array.length s <> Array.length d then invalid_arg "Cuda.memcpy_p2p_floats: length";
  Array.blit s 0 d 0 (Array.length s);
  let src_dev = src.Memory.device_id and dst_dev = dst.Memory.device_id in
  if src_dev <> dst_dev then
    c.clock <-
      Machine.transfer_sync c.m ~ready:c.clock
        (Fabric.P2p (src_dev, dst_dev))
        ~bytes:(8 * Array.length s) ~label:"p2p"

(* Serializes on the device, not the host clock; returns the kernel
   finish time. *)
let launch_async c ~threads ~label body =
  let cost = body () in
  let _, finish = Machine.launch_kernel c.m ~dev:c.dev ~ready:c.clock ~threads ~label cost in
  finish

let launch c ~threads ~label body = c.clock <- launch_async c ~threads ~label body

let elapsed = now
