(** Simulated device memory: real storage plus capacity accounting.

    Buffers carry actual element storage (so kernels compute real results)
    and an accounted byte size (4-byte ints, 8-byte doubles, raw bytes for
    system structures). Usage is tracked separately for [`User] data (the
    program's arrays) and [`System] data (dirty bits, write-miss buffers,
    partial-reduction buffers) — the split plotted in the paper's Fig. 9. *)

type klass = [ `User | `System ]

type payload =
  | Float_data of float array  (** C double, 8 bytes/element *)
  | Int_data of int array  (** C int, 4 bytes/element *)
  | Raw_bytes of int  (** sized but contentless system storage *)

type buf = private {
  device_id : int;
  klass : klass;
  payload : payload;
  size_bytes : int;
  mutable freed : bool;
}

type t
(** One device's memory. *)

exception Out_of_device_memory of { device_id : int; requested : int; available : int }

val create : device_id:int -> capacity:int -> t
val used_class : t -> klass -> int
(** Bytes in use by one class. No run reads it; the memory, dirty-bit,
    miss-buffer and reduction accounting tests check that a charge lands in
    its class, and sum both classes where they check that nothing is left
    in use. *)

val peak_class : t -> klass -> int

val alloc_float : t -> klass -> int -> buf
(** [alloc_float m k n] allocates [n] doubles, zero-initialized. Raises
    [Out_of_device_memory] when the capacity would be exceeded. *)

val alloc_int : t -> klass -> int -> buf
val alloc_raw : t -> klass -> int -> buf
val free : t -> buf -> unit
(** Double frees are ignored. *)

val float_data : buf -> float array
(** The backing store. Raises [Invalid_argument] on a non-float or freed
    buffer. *)

val int_data : buf -> int array
val reset_peaks : t -> unit
