(** Static checking of mini-C programs.

    Verifies scoping, arity, numeric typing (with C-style implicit
    int/double conversion), loop-only [break]/[continue], and the
    well-formedness of directives: data clauses must name arrays in scope,
    scalar reductions must name scalars, [localaccess] and
    [reductiontoarray] must name arrays, a parallel-loop directive must
    annotate a [for] statement, and [reductiontoarray] must annotate an
    assignment into the named array. Raises {!Loc.Error} on violation. *)

val check_program : Ast.program -> unit

val type_of_expr : (string -> Ast.typ option) -> Ast.expr -> Ast.typ
(** [type_of_expr lookup e] types a single expression given a variable
    environment; exposed for the analysis passes and tests. *)

val type_of_expr_in : Ast.program -> (string -> Ast.typ option) -> Ast.expr -> Ast.typ
(** Like {!type_of_expr}, but calls to the program's own functions type as
    their declared result. *)
