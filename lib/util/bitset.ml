type t = { bits : Bytes.t; n : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { bits = Bytes.make ((n + 7) / 8) '\000'; n }

let length t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.n)

let set t i =
  check t i;
  let b = Bytes.get_uint8 t.bits (i lsr 3) in
  Bytes.set_uint8 t.bits (i lsr 3) (b lor (1 lsl (i land 7)))

let clear t i =
  check t i;
  let b = Bytes.get_uint8 t.bits (i lsr 3) in
  Bytes.set_uint8 t.bits (i lsr 3) (b land lnot (1 lsl (i land 7)))

let get t i =
  check t i;
  Bytes.get_uint8 t.bits (i lsr 3) land (1 lsl (i land 7)) <> 0

let clear_all t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

let set_range t ~lo ~hi =
  let lo = max 0 lo and hi = min t.n hi in
  (* Whole bytes in the middle are filled at once. *)
  let i = ref lo in
  while !i < hi && !i land 7 <> 0 do
    set t !i;
    incr i
  done;
  while hi - !i >= 8 do
    Bytes.set_uint8 t.bits (!i lsr 3) 0xFF;
    i := !i + 8
  done;
  while !i < hi do
    set t !i;
    incr i
  done

let any_in_range t ~lo ~hi =
  let lo = max 0 lo and hi = min t.n hi in
  let result = ref false in
  let i = ref lo in
  while (not !result) && !i < hi do
    if !i land 7 = 0 && hi - !i >= 8 then begin
      if Bytes.get_uint8 t.bits (!i lsr 3) <> 0 then result := true;
      i := !i + 8
    end
    else begin
      if get t !i then result := true;
      incr i
    end
  done;
  !result

let popcount8 =
  let tbl = Array.make 256 0 in
  for i = 1 to 255 do
    tbl.(i) <- tbl.(i lsr 1) + (i land 1)
  done;
  fun b -> tbl.(b)

let count t =
  let total = ref 0 in
  for b = 0 to Bytes.length t.bits - 1 do
    total := !total + popcount8 (Bytes.get_uint8 t.bits b)
  done;
  !total

let count_in_range t ~lo ~hi =
  let lo = max 0 lo and hi = min t.n hi in
  let total = ref 0 in
  let i = ref lo in
  while !i < hi do
    if !i land 7 = 0 && hi - !i >= 8 then begin
      total := !total + popcount8 (Bytes.get_uint8 t.bits (!i lsr 3));
      i := !i + 8
    end
    else begin
      if get t !i then incr total;
      incr i
    end
  done;
  !total

let iter_set t f =
  for b = 0 to Bytes.length t.bits - 1 do
    let byte = Bytes.get_uint8 t.bits b in
    if byte <> 0 then
      for k = 0 to 7 do
        let i = (b lsl 3) + k in
        if i < t.n && byte land (1 lsl k) <> 0 then f i
      done
  done

(* Trailing-zero count of a nonzero 32-bit value: multiplying its lowest
   set bit by a de Bruijn constant puts a distinct 5-bit pattern in the
   top bits, which the table maps back to the bit's position. *)
let debruijn = 0x077CB531

let debruijn_pos =
  let tbl = Array.make 32 0 in
  for k = 0 to 31 do
    tbl.((((1 lsl k) * debruijn) land 0xFFFFFFFF) lsr 27) <- k
  done;
  tbl

let ctz32 x = debruijn_pos.((((x land -x) * debruijn) land 0xFFFFFFFF) lsr 27)

(* The 32 bits from element [base] (a multiple of 32) as a native int,
   read little-endian so that bit k is element [base + k]; bytes past the
   end of the storage read as zero. *)
let word32 t base =
  let b = base lsr 3 in
  if b + 4 <= Bytes.length t.bits then
    Bytes.get_uint16_le t.bits b lor (Bytes.get_uint16_le t.bits (b + 2) lsl 16)
  else begin
    let w = ref 0 in
    for k = 0 to Bytes.length t.bits - b - 1 do
      w := !w lor (Bytes.get_uint8 t.bits (b + k) lsl (8 * k))
    done;
    !w
  end

(* The first bit in [\[i, hi)] that differs from [set], or [hi] if none.
   An aligned 64-bit word that continues the state (all clear outside a
   run, all set inside one) is skipped whole; such words read the same in
   either byte order. Otherwise, in the aligned 32-bit word holding bit
   [i], the first bit from [i] on that differs is the next run boundary,
   or there is none in this word. *)
let rec boundary t ~set i hi =
  if i >= hi then hi
  else if
    i land 63 = 0
    && hi - i >= 64
    && Bytes.get_int64_ne t.bits (i lsr 3) = if set then -1L else 0L
  then boundary t ~set (i + 64) hi
  else begin
    let base = i land lnot 31 in
    let w = word32 t base in
    let change = (if set then w lxor 0xFFFFFFFF else w) land (-1 lsl (i - base)) in
    if change = 0 then boundary t ~set (base + 32) hi else min hi (base + ctz32 change)
  end

(* The runs from [i], which is outside a run, in order. *)
let[@tail_mod_cons] rec runs_from t i hi =
  let j = boundary t ~set:false i hi in
  if j >= hi then []
  else
    let k = boundary t ~set:true (j + 1) hi in
    Interval.make j k :: runs_from t k hi

let runs_in_range t ~lo ~hi =
  let lo = max 0 lo and hi = min t.n hi in
  (* The scan emits sorted, disjoint, non-adjacent runs by construction. *)
  Interval.Set.of_sorted_disjoint (runs_from t lo hi)

let runs t = runs_in_range t ~lo:0 ~hi:t.n

let union_into ~dst ~src =
  if dst.n <> src.n then invalid_arg "Bitset.union_into: length mismatch";
  for b = 0 to Bytes.length dst.bits - 1 do
    Bytes.set_uint8 dst.bits b (Bytes.get_uint8 dst.bits b lor Bytes.get_uint8 src.bits b)
  done

let bytes_footprint t = Bytes.length t.bits
