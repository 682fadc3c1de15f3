(* Growable array used by the fabric's reference allocator
   (Ref_fabric.run_batch_reference). The water-filling allocation is
   numerically order-dependent, so iteration order is part of the
   contract: push appends, iter/fold visit in push order, and
   filter_in_place compacts stably. Vacated slots (after filter_in_place
   or clear) are overwritten with a dummy so the bag never pins removed
   values live. *)

type 'a t = { mutable arr : 'a array; mutable len : int; dummy : 'a }

(* The dummy is an immediate (int 0) masquerading as ['a]; it is never
   read back — slots at index >= len are invisible to the API — and the
   GC treats immediates as non-pointers, so this is safe for any 'a. *)
let create () = { arr = [||]; len = 0; dummy = Obj.magic 0 }
let is_empty b = b.len = 0
let length b = b.len

let get b i =
  if i < 0 || i >= b.len then invalid_arg (Printf.sprintf "Bag.get: %d (length %d)" i b.len);
  Array.unsafe_get b.arr i

let push b x =
  if b.len = Array.length b.arr then begin
    let grown = Array.make (Int.max 8 (2 * b.len)) b.dummy in
    Array.blit b.arr 0 grown 0 b.len;
    b.arr <- grown
  end;
  b.arr.(b.len) <- x;
  b.len <- b.len + 1

let iter f b =
  for i = 0 to b.len - 1 do
    f b.arr.(i)
  done

let fold f init b =
  let acc = ref init in
  for i = 0 to b.len - 1 do
    acc := f !acc b.arr.(i)
  done;
  !acc

let filter_in_place b ~keep ~removed =
  let w = ref 0 in
  for r = 0 to b.len - 1 do
    let x = b.arr.(r) in
    if keep x then begin
      b.arr.(!w) <- x;
      incr w
    end
    else removed x
  done;
  for i = !w to b.len - 1 do
    b.arr.(i) <- b.dummy
  done;
  b.len <- !w

let clear b =
  for i = 0 to b.len - 1 do
    b.arr.(i) <- b.dummy
  done;
  b.len <- 0
