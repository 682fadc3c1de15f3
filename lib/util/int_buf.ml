(* Chunk [k] holds the ints [k * chunk .. (k + 1) * chunk - 1]. A chunk
   of 1024 words is past the minor heap's largest block, so it goes
   straight to the major heap and is never copied by a promotion. The
   first chunk starts at 16 ints and doubles up to a chunk, so a short
   buffer stays small. *)
let bits = 10
let chunk = 1 lsl bits
let mask = chunk - 1

type t = { mutable chunks : int array array; mutable len : int }

let create () = { chunks = [||]; len = 0 }
let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Int_buf.get";
  Array.unsafe_get (Array.unsafe_get t.chunks (i lsr bits)) (i land mask)

(* Make room for int [i], the one after the last. *)
let reserve t i =
  let k = i lsr bits in
  if k = Array.length t.chunks then begin
    let chunks = Array.make (max 4 (2 * k)) [||] in
    Array.blit t.chunks 0 chunks 0 k;
    t.chunks <- chunks
  end;
  let c = t.chunks.(k) in
  if i land mask = Array.length c then begin
    let grown = Array.make (if k = 0 then max 16 (2 * Array.length c) else chunk) 0 in
    Array.blit c 0 grown 0 (Array.length c);
    t.chunks.(k) <- grown
  end

let push t x =
  let i = t.len in
  let k = i lsr bits in
  if k >= Array.length t.chunks || i land mask >= Array.length (Array.unsafe_get t.chunks k) then
    reserve t i;
  Array.unsafe_set (Array.unsafe_get t.chunks k) (i land mask) x;
  t.len <- i + 1

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Int_buf.truncate";
  t.len <- n

let append dst src ~from =
  if from < 0 || from > src.len then invalid_arg "Int_buf.append";
  for i = from to src.len - 1 do
    push dst (Array.unsafe_get (Array.unsafe_get src.chunks (i lsr bits)) (i land mask))
  done
