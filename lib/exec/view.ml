open Mgacc_minic
open Ast

type t = {
  name : string;
  elem : elem_ty;
  length : int;
  fdata : float array;
  idata : int array;
  lo : int;
  hi : int;
  load_f : int -> float array -> int -> unit;
  store_f : int -> float array -> int -> unit;
  reduce_f : redop -> int -> float array -> int -> unit;
  get_i : int -> int;
  set_i : int -> int -> unit;
  reduce_i : redop -> int -> int -> unit;
}

exception Bounds of { name : string; index : int; length : int }

let apply_redop_f op a b =
  match op with
  | Rplus -> a +. b
  | Rmul -> a *. b
  | Rmax -> Float.max a b
  | Rmin -> Float.min a b

let apply_redop_i op a b =
  match op with Rplus -> a + b | Rmul -> a * b | Rmax -> max a b | Rmin -> min a b

let redop_identity_f = function
  | Rplus -> 0.0
  | Rmul -> 1.0
  | Rmax -> neg_infinity
  | Rmin -> infinity

let redop_identity_i = function
  | Rplus -> 0
  | Rmul -> 1
  | Rmax -> min_int
  | Rmin -> max_int

let wrong_type name what =
  invalid_arg (Printf.sprintf "View: %s access on wrong-typed view %s" what name)

let check_window name ~lo ~hi n =
  if lo < 0 || hi < lo || hi - lo > n then
    invalid_arg
      (Printf.sprintf "View: window [%d, %d) of %s does not fit its %d-element array" lo hi name n)

let doubles ~name ~length ~data ~lo ~hi ~load_f ~store_f ~reduce_f =
  check_window name ~lo ~hi (Array.length data);
  {
    name;
    elem = Edouble;
    length;
    fdata = data;
    idata = [||];
    lo;
    hi;
    load_f;
    store_f;
    reduce_f;
    get_i = (fun _ -> wrong_type name "int get");
    set_i = (fun _ _ -> wrong_type name "int set");
    reduce_i = (fun _ _ _ -> wrong_type name "int reduce");
  }

let ints ~name ~length ~data ~lo ~hi ~get_i ~set_i ~reduce_i =
  check_window name ~lo ~hi (Array.length data);
  {
    name;
    elem = Eint;
    length;
    fdata = [||];
    idata = data;
    lo;
    hi;
    get_i;
    set_i;
    reduce_i;
    load_f = (fun _ _ _ -> wrong_type name "float load");
    store_f = (fun _ _ _ -> wrong_type name "float store");
    reduce_f = (fun _ _ _ _ -> wrong_type name "float reduce");
  }

let of_float_array ~name data =
  let n = Array.length data in
  let check i = if i < 0 || i >= n then raise (Bounds { name; index = i; length = n }) in
  doubles ~name ~length:n ~data ~lo:0 ~hi:n
    ~load_f:(fun i bank s ->
      check i;
      bank.(s) <- Array.unsafe_get data i)
    ~store_f:(fun i bank s ->
      check i;
      Array.unsafe_set data i bank.(s))
    ~reduce_f:(fun op i bank s ->
      check i;
      Array.unsafe_set data i (apply_redop_f op (Array.unsafe_get data i) bank.(s)))

let of_int_array ~name data =
  let n = Array.length data in
  let check i = if i < 0 || i >= n then raise (Bounds { name; index = i; length = n }) in
  ints ~name ~length:n ~data ~lo:0 ~hi:n
    ~get_i:(fun i ->
      check i;
      Array.unsafe_get data i)
    ~set_i:(fun i v ->
      check i;
      Array.unsafe_set data i v)
    ~reduce_i:(fun op i v ->
      check i;
      Array.unsafe_set data i (apply_redop_i op (Array.unsafe_get data i) v))

let unbound =
  let fail () = invalid_arg "Frame.get_view: unbound view slot" in
  {
    name = "<unbound>";
    elem = Edouble;
    length = 0;
    fdata = [||];
    idata = [||];
    lo = 0;
    hi = 0;
    load_f = (fun _ _ _ -> fail ());
    store_f = (fun _ _ _ -> fail ());
    reduce_f = (fun _ _ _ _ -> fail ());
    get_i = (fun _ -> fail ());
    set_i = (fun _ _ -> fail ());
    reduce_i = (fun _ _ _ -> fail ());
  }

let snapshot_f v =
  match v.elem with
  | Edouble ->
      let a = Array.make v.length 0.0 in
      for i = 0 to v.length - 1 do
        v.load_f i a i
      done;
      a
  | Eint -> invalid_arg (Printf.sprintf "View.snapshot_f: %s is an int view" v.name)

let snapshot_i v =
  match v.elem with
  | Eint -> Array.init v.length v.get_i
  | Edouble -> invalid_arg (Printf.sprintf "View.snapshot_i: %s is a double view" v.name)
