module Memory = Mgacc_gpusim.Memory

(* The records in recording order, in growable unboxed columns: record
   [k]'s array index is [idx.(k)] and its value [fvals.(k)] or
   [ivals.(k)], the column of the array's element type (the other stays
   empty). A column doubles when it fills and is kept across drains, so a
   miss allocates nothing, amortized. *)
type t = {
  mem : Memory.t;
  record_bytes : int;  (* 4-byte index + element payload *)
  mutable idx : int array;
  mutable fvals : float array;
  mutable ivals : int array;
  mutable count : int;
  mutable buf : Memory.buf option;  (* current accounted allocation *)
}

(* Device-side buffering is accounted in pages so the simulated allocator
   is not hit on every record. *)
let page_bytes = 64 * 1024

let create mem ~elem_bytes =
  {
    mem;
    record_bytes = 4 + elem_bytes;
    idx = [||];
    fvals = [||];
    ivals = [||];
    count = 0;
    buf = None;
  }

let accounted t = match t.buf with Some b -> b.Memory.size_bytes | None -> 0

let ensure_capacity t =
  let needed = t.count * t.record_bytes in
  if needed > accounted t then begin
    (match t.buf with Some b -> Memory.free t.mem b | None -> ());
    let pages = (needed + page_bytes - 1) / page_bytes in
    t.buf <- Some (Memory.alloc_raw t.mem `System (pages * page_bytes))
  end

(* [a] copied into an array twice as long (at least 16), [fill] after it. *)
let grow a fill =
  let b = Array.make (max 16 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Appends index [i]; returns its record's position. *)
let add t i =
  let k = t.count in
  if k = Array.length t.idx then t.idx <- grow t.idx 0;
  Array.unsafe_set t.idx k i;
  t.count <- k + 1;
  ensure_capacity t;
  k

let record_f t i (bank : float array) s =
  let k = add t i in
  if k = Array.length t.fvals then t.fvals <- grow t.fvals 0.0;
  Array.unsafe_set t.fvals k (Array.get bank s)

let record_i t i v =
  let k = add t i in
  if k = Array.length t.ivals then t.ivals <- grow t.ivals 0;
  Array.unsafe_set t.ivals k v

let count t = t.count
let is_empty t = t.count = 0

let check t k = if k < 0 || k >= t.count then invalid_arg "Miss_buffer: no such record"

let index t k =
  check t k;
  Array.unsafe_get t.idx k

let float_value t k =
  check t k;
  t.fvals.(k)

let int_value t k =
  check t k;
  t.ivals.(k)

let drain t =
  t.count <- 0;
  match t.buf with
  | Some b ->
      Memory.free t.mem b;
      t.buf <- None
  | None -> ()

let release t = drain t
