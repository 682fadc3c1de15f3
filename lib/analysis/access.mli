(** Read/write access analysis of parallel-loop bodies.

    Records every array subscript in the loop body, split into plain reads,
    plain writes, and reduction writes (statements annotated with
    [reductiontoarray], whose read-modify-write of the destination is part
    of the reduction and not a data dependence). Raw subscript expressions
    are kept so that different classifiers can be applied: the strict
    affine classifier (used for correctness decisions such as
    write-miss-check elimination) and the taint-based coalescing classifier
    (used by the cost model). *)

open Mgacc_minic

type index_class = Affine of Affine.t | Dynamic

type array_access = {
  array : string;
  reads : Ast.expr list;  (** subscript expressions of plain reads *)
  writes : Ast.expr list;
  reduction_writes : Ast.expr list;
}

val written_vars : Ast.stmt list -> string list
(** The variables that [stmts] declare, assign or step anywhere, nested
    statements and loop headers included. *)

val is_uniform_in : Loop_info.t -> string -> bool
(** Whether a variable is loop-uniform in the strict sense: not the loop
    variable, not declared in the body, not assigned in the body. *)

val analyze : Loop_info.t -> array_access list
(** One summary per array mentioned in the body, sorted by array name. *)

val find : array_access list -> string -> array_access option

val classify_index : Loop_info.t -> Ast.expr -> index_class
(** Strict classification of one subscript (loop-uniform offsets only). *)

val read_only : array_access -> bool
(** Some reads, no writes of either kind. *)
