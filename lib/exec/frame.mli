(** Execution frames with compile-time slot assignment.

    The compiler resolves every variable to a fixed slot in a typed bank
    (ints, floats, views) at compile time, so executing code involves no
    name lookups. A {!Layout.t} is threaded through compilation to assign
    slots lexically; {!create} then instantiates a frame of the final
    size. Besides named variables, a layout holds temporaries (where a
    double subexpression leaves its value) and constants (the literals
    compiled code reads in place), which {!create} initializes.

    A frame also carries the cost counter its compiled code charges. *)

open Mgacc_minic

type slot = Int_slot of int | Float_slot of int | View_slot of int

type t = {
  ints : int array;
  floats : float array;
  views : View.t array;  (** {!View.unbound} until a view is bound *)
  cost : Mgacc_gpusim.Cost.t;
}

type scope
(** The names in force at one program point, innermost scope first. A
    scope is immutable: names declared later do not appear in it. *)

val lookup_in : scope -> string -> (slot * Ast.typ) option
(** Innermost-scope-first lookup. *)

module Layout : sig
  type t

  val create : unit -> t

  val enter_scope : t -> unit
  val leave_scope : t -> unit

  val declare : t -> Loc.t -> string -> Ast.typ -> slot
  (** Assign a fresh slot; raises {!Loc.Error} on redeclaration in the same
      scope or on a [void] declaration. *)

  val fresh : t -> Loc.t -> Ast.typ -> slot
  (** Assign a fresh slot that no name refers to. *)

  val bind : t -> Loc.t -> string -> Ast.typ -> slot -> unit
  (** Name a slot from {!fresh}, with {!declare}'s checks. *)

  val const_int : t -> int -> int
  val const_float : t -> float -> int
  (** The index of a slot that holds the constant in every frame of the
      layout; equal constants share a slot. Compiled code never writes it. *)

  val lookup : t -> string -> (slot * Ast.typ) option
  (** Innermost-scope-first lookup. *)

  val scope : t -> scope
  (** The names declared so far, as they stand now. *)

  val int_bank_size : t -> int
  val float_bank_size : t -> int
  val view_bank_size : t -> int
end

val create : Layout.t -> Mgacc_gpusim.Cost.t -> t
(** A zeroed frame sized for everything the layout ever declared, with its
    constants in place, charging [cost]. *)

val layout_above : scope -> t -> Layout.t
(** A layout that resolves names through [scope] and numbers its own slots
    after the frame's: for compiling an expression against an existing
    frame. Run the result on {!extend}. *)

val extend : t -> Layout.t -> t
(** [extend fr layout] is [fr] when [layout] added no slot; otherwise a
    frame of [layout]'s size holding a copy of [fr]'s slots, [layout]'s
    constants and [fr]'s cost counter. *)

val set_view : t -> slot -> View.t -> unit
val get_view : t -> int -> View.t
(** Raises [Invalid_argument] if the slot was never bound. *)

val set_int : t -> slot -> int -> unit
val set_float : t -> slot -> float -> unit
val get_int : t -> slot -> int
val get_float : t -> slot -> float
