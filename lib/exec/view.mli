(** Array views: the storage interface kernels and host code execute
    against.

    A view hides where an array actually lives. A host array wraps an OCaml
    array directly; the multi-GPU runtime builds views that translate
    logical indices into a device partition, mark dirty bits on writes,
    buffer write misses, or accumulate into reduction partials. The
    compiled kernel code is the same either way.

    Doubles move through a view in slot-passing style, so no float is ever
    boxed on the way: [load_f i bank slot] copies element [i] into
    [bank.(slot)], [store_f i bank slot] writes [bank.(slot)] to element
    [i], and [reduce_f op i bank slot] folds [bank.(slot)] into element [i].
    The bank is a frame's float bank for compiled code, or a staging buffer
    for the runtime's host/device copies. Ints are immediate in OCaml and
    pass by value. A view charges nothing itself unless it was built
    around a cost counter (the runtime's instrumented views). *)

open Mgacc_minic

(** A double view's reduction window: the array a reduction update folds
    into in place, and the operator it accepts. For every logical index [i
    < Array.length rdata] and every accepted [op], [reduce_f op i bank s]
    does exactly [rdata.(i) <- apply_redop_f op rdata.(i) bank.(s)] and
    [rtouch ()], and nothing else. Host arrays expose their own data with
    every operator; the runtime's reduction views their GPU's partial with
    the declared operator ({!with_reduction_window}); every other view an
    empty window. Compiled code folds in place only after checking a whole
    loop entry's destinations and operator against the window, and then
    calls [rtouch] once; any other update calls [reduce_f], so every bad
    one still raises from the accessor. *)
type reduction_window = private {
  rdata : float array;
  rop : Ast.redop option;  (** the operator accepted; [None]: every one *)
  rtouch : unit -> unit;  (** idempotent; marks the view as reduced into *)
}

type t = private {
  name : string;
  elem : Ast.elem_ty;
  length : int;  (** logical element count *)
  fdata : float array;  (** a double view's backing array; [\[||\]] in an int view *)
  idata : int array;  (** an int view's backing array; [\[||\]] in a double view *)
  lo : int;
  hi : int;
      (** The read window [\[lo, hi)]: for every logical index [i] in it,
          element [i] is [data.(i - lo)] in the backing array of the view's
          element type, and reading it through the accessors would return
          exactly that. Invariant: [0 <= lo <= hi] and [hi - lo] is at most
          that array's length. Host arrays, replicated views and reduction
          views expose [\[0, length)]; a 1-D distributed part exposes its
          resident window; tiled parts and {!unbound} expose an empty one.
          Compiled code reads inside the window in place and calls
          [load_f]/[get_i] only outside it, so every bad read still raises
          from the accessor. *)
  whi : int;
      (** The write window [\[lo, whi)]: for every logical index [i] in it,
          writing [x] through the accessors would do exactly
          [data.(i - lo) <- x] and nothing else. Invariant: [lo <= whi <=
          hi]. Host arrays ({!of_float_array}, {!of_int_array}) expose
          [\[0, length)]; every view built by {!doubles} or {!ints} (all
          the runtime's device views: replicated, reduction, distributed
          and tiled) and {!unbound} expose an empty one, so their dirty
          marks, ownership and miss checks and reduction-operator checks
          see every write. Compiled code stores inside the window in place
          and calls [store_f]/[set_i] only outside it, so every bad write
          still raises from the accessor. *)
  rwin : reduction_window;
  load_f : int -> float array -> int -> unit;
  store_f : int -> float array -> int -> unit;
  reduce_f : Ast.redop -> int -> float array -> int -> unit;
      (** accumulate into a reduction destination; only reduction views
          and host arrays implement this *)
  get_i : int -> int;
  set_i : int -> int -> unit;
  reduce_i : Ast.redop -> int -> int -> unit;
}

exception Bounds of { name : string; index : int; length : int }
(** Raised by the host-array accessors on out-of-range logical indices. *)

val doubles :
  name:string ->
  length:int ->
  data:float array ->
  lo:int ->
  hi:int ->
  load_f:(int -> float array -> int -> unit) ->
  store_f:(int -> float array -> int -> unit) ->
  reduce_f:(Ast.redop -> int -> float array -> int -> unit) ->
  t
(** A double view over [data] with read window [\[lo, hi)] and an empty
    write window; its int accessors raise [Invalid_argument]. Raises
    [Invalid_argument] if the window does not fit [data]. *)

val with_reduction_window : t -> into:float array -> op:Ast.redop -> touch:(unit -> unit) -> t
(** The double view with reduction window [into], accepting [op] and
    marking with [touch]. The caller keeps the window's invariant. *)

val ints :
  name:string ->
  length:int ->
  data:int array ->
  lo:int ->
  hi:int ->
  get_i:(int -> int) ->
  set_i:(int -> int -> unit) ->
  reduce_i:(Ast.redop -> int -> int -> unit) ->
  t
(** The int counterpart of {!doubles}. *)

val of_float_array : name:string -> float array -> t
(** Bounds-checked direct view over (and aliasing) a host array, with
    read and write windows over all of it; [reduce_f] applies the operator
    in place (the host/OpenMP semantics of a reduction) without boxing a
    sum or a product. *)

val of_int_array : name:string -> int array -> t

val unbound : t
(** The sentinel in a frame's view slot before an array is bound there;
    every accessor raises [Invalid_argument]. *)

val snapshot_f : t -> float array
(** Copy of the logical contents, read through the accessors. *)

val snapshot_i : t -> int array

val apply_redop_f : Ast.redop -> float -> float -> float
val apply_redop_i : Ast.redop -> int -> int -> int
val redop_identity_f : Ast.redop -> float
val redop_identity_i : Ast.redop -> int
