type klass = [ `User | `System ]

type payload = Float_data of float array | Int_data of int array | Raw_bytes of int

type buf = {
  device_id : int;
  klass : klass;
  payload : payload;
  size_bytes : int;
  mutable freed : bool;
}

type t = {
  dev : int;
  cap : int;
  mutable used_user : int;
  mutable used_system : int;
  mutable peak_user : int;
  mutable peak_system : int;
}

exception Out_of_device_memory of { device_id : int; requested : int; available : int }

let create ~device_id ~capacity =
  {
    dev = device_id;
    cap = capacity;
    used_user = 0;
    used_system = 0;
    peak_user = 0;
    peak_system = 0;
  }

let used t = t.used_user + t.used_system
let used_class t = function `User -> t.used_user | `System -> t.used_system
let peak_class t = function `User -> t.peak_user | `System -> t.peak_system

let account t klass bytes =
  let avail = t.cap - used t in
  if bytes > avail then raise (Out_of_device_memory { device_id = t.dev; requested = bytes; available = avail });
  (match klass with
  | `User ->
      t.used_user <- t.used_user + bytes;
      t.peak_user <- max t.peak_user t.used_user
  | `System ->
      t.used_system <- t.used_system + bytes;
      t.peak_system <- max t.peak_system t.used_system)

let mk t klass payload size_bytes =
  account t klass size_bytes;
  { device_id = t.dev; klass; payload; size_bytes; freed = false }

let alloc_float t klass n =
  if n < 0 then invalid_arg "Memory.alloc_float";
  mk t klass (Float_data (Array.make (max n 0) 0.0)) (8 * n)

let alloc_int t klass n =
  if n < 0 then invalid_arg "Memory.alloc_int";
  mk t klass (Int_data (Array.make (max n 0) 0)) (4 * n)

let alloc_raw t klass bytes =
  if bytes < 0 then invalid_arg "Memory.alloc_raw";
  mk t klass (Raw_bytes bytes) bytes

let free t buf =
  if not buf.freed then begin
    buf.freed <- true;
    match buf.klass with
    | `User -> t.used_user <- t.used_user - buf.size_bytes
    | `System -> t.used_system <- t.used_system - buf.size_bytes
  end

let float_data buf =
  if buf.freed then invalid_arg "Memory.float_data: use after free";
  match buf.payload with
  | Float_data a -> a
  | Int_data _ | Raw_bytes _ -> invalid_arg "Memory.float_data: not a float buffer"

let int_data buf =
  if buf.freed then invalid_arg "Memory.int_data: use after free";
  match buf.payload with
  | Int_data a -> a
  | Float_data _ | Raw_bytes _ -> invalid_arg "Memory.int_data: not an int buffer"

let reset_peaks t =
  t.peak_user <- t.used_user;
  t.peak_system <- t.used_system
