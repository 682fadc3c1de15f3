type t = { mutable s0 : int64; mutable s1 : int64 }

let splitmix64 state =
  (* SplitMix64 step, used only to expand the seed into initial state. *)
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  if seed < 0 then invalid_arg "Xorshift.create: negative seed";
  let state = ref (Int64.of_int (seed + 1)) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  { s0; s1 }

let next t =
  let open Int64 in
  let s1 = t.s0 and s0 = t.s1 in
  t.s0 <- s0;
  let s1 = logxor s1 (shift_left s1 23) in
  t.s1 <- logxor (logxor (logxor s1 s0) (shift_right_logical s1 18)) (shift_right_logical s0 5);
  add t.s1 s0

let int t bound =
  if bound <= 0 then invalid_arg "Xorshift.int: bound <= 0";
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  (* 53 significant bits, the double mantissa width. *)
  bound *. (v /. 9007199254740992.0)

let gaussian t ~mean ~stddev =
  let rec draw () =
    let u = float t 1.0 in
    if u = 0.0 then draw () else u
  in
  let u1 = draw () and u2 = float t 1.0 in
  mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
