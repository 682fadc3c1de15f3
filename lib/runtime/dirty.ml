module Memory = Mgacc_gpusim.Memory
module Bitset = Mgacc_util.Bitset

type t = {
  elem_bytes : int;
  length : int;
  chunk_elems : int;
  two_level : bool;
  first : Bitset.t;
  second : Bitset.t;  (* one bit per chunk *)
  first_buf : Memory.buf;
  second_buf : Memory.buf;
  mutable dirty_elems : int;
  mutable dirty_bytes : int;
      (* two-level transfer payload of the currently dirty chunks,
         maintained incrementally by [mark] so [transfer_bytes] is O(1) *)
}

(* Payload one dirty chunk contributes to a transfer: its (clamped)
   elements plus its slice of first-level bits. *)
let chunk_payload_bytes t chunk =
  let lo = chunk * t.chunk_elems in
  let hi = min t.length (lo + t.chunk_elems) in
  let elems = hi - lo in
  (elems * t.elem_bytes) + ((elems + 7) / 8)

let create mem ~elem_bytes ~length ~chunk_bytes ~two_level =
  if elem_bytes <= 0 || length < 0 || chunk_bytes < elem_bytes then
    invalid_arg "Dirty.create: bad geometry";
  let chunk_elems = max 1 (chunk_bytes / elem_bytes) in
  let nchunks = (length + chunk_elems - 1) / chunk_elems in
  let first_bytes = (length + 7) / 8 in
  let second_bytes = (nchunks + 7) / 8 in
  {
    elem_bytes;
    length;
    chunk_elems;
    two_level;
    first = Bitset.create length;
    second = Bitset.create (max nchunks 1);
    first_buf = Memory.alloc_raw mem `System first_bytes;
    second_buf = Memory.alloc_raw mem `System (if two_level then second_bytes else 0);
    dirty_elems = 0;
    dirty_bytes = 0;
  }

let mark t i =
  if not (Bitset.get t.first i) then begin
    Bitset.set t.first i;
    t.dirty_elems <- t.dirty_elems + 1;
    let chunk = i / t.chunk_elems in
    if not (Bitset.get t.second chunk) then begin
      Bitset.set t.second chunk;
      t.dirty_bytes <- t.dirty_bytes + chunk_payload_bytes t chunk
    end
  end

let any_dirty t = t.dirty_elems > 0
let total_chunks t = (t.length + t.chunk_elems - 1) / t.chunk_elems
let dirty_runs t = Bitset.runs t.first

let transfer_bytes t =
  if t.dirty_elems = 0 then 0
  else if t.two_level then t.dirty_bytes
  else (t.length * t.elem_bytes) + ((t.length + 7) / 8)

let clear t =
  Bitset.clear_all t.first;
  Bitset.clear_all t.second;
  t.dirty_elems <- 0;
  t.dirty_bytes <- 0

let free mem t =
  Memory.free mem t.first_buf;
  Memory.free mem t.second_buf
