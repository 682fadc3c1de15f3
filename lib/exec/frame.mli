(** Execution frames with compile-time slot assignment.

    The compiler resolves every variable to a fixed slot in a typed bank
    (ints, floats, views) at compile time, so executing code involves no
    name lookups. A {!Layout.t} is threaded through compilation to assign
    slots lexically; {!create} then instantiates a frame of the final
    size. *)

open Mgacc_minic

type slot = Int_slot of int | Float_slot of int | View_slot of int

type t = { ints : int array; floats : float array; views : View.t option array }

type scope
(** The names in force at one program point, innermost scope first. A
    scope is immutable: names declared later do not appear in it. *)

val lookup_in : scope -> string -> (slot * Ast.typ) option
(** Innermost-scope-first lookup. *)

module Layout : sig
  type t

  val create : unit -> t

  val of_scope : scope -> t
  (** A layout that resolves names through [scope] and owns no slots: for
      compiling expressions that declare nothing against an existing
      frame. *)

  val enter_scope : t -> unit
  val leave_scope : t -> unit

  val declare : t -> Loc.t -> string -> Ast.typ -> slot
  (** Assign a fresh slot; raises {!Loc.Error} on redeclaration in the same
      scope or on a [void] declaration. *)

  val fresh : t -> Loc.t -> Ast.typ -> slot
  (** Assign a fresh slot that no name refers to. *)

  val lookup : t -> string -> (slot * Ast.typ) option
  (** Innermost-scope-first lookup. *)

  val scope : t -> scope
  (** The names declared so far, as they stand now. *)

  val int_bank_size : t -> int
  val float_bank_size : t -> int
  val view_bank_size : t -> int
end

val create : Layout.t -> t
(** A zeroed frame sized for everything the layout ever declared. *)

val set_view : t -> slot -> View.t -> unit
val get_view : t -> int -> View.t
(** Raises [Invalid_argument] if the slot was never bound. *)

val set_int : t -> slot -> int -> unit
val set_float : t -> slot -> float -> unit
val get_int : t -> slot -> int
val get_float : t -> slot -> float
