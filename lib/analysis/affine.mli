(** Affine analysis of subscript expressions.

    A subscript is analyzed relative to the parallel loop variable [i] into
    the form [coeff * i + const + terms], where [coeff] and [const] are
    compile-time integers and [terms] are loop-uniform expressions (they
    evaluate to the same value in every iteration, e.g. kernel scalar
    parameters). Subscripts that do not fit — data-dependent gathers like
    [a\[idx\[i\]\]] or anything involving thread-private values — are not
    affine and are classified {!Dynamic} by the access analysis.

    The translator uses affine forms for three of the paper's
    optimizations: coalescing detection (|coeff| <= small), the data layout
    transformation, and write-miss-check elimination for distributed
    arrays. *)

open Mgacc_minic

type t = {
  coeff : int;  (** multiplier of the loop variable *)
  const : int;  (** compile-time constant part of the offset *)
  terms : Ast.expr list;  (** loop-uniform symbolic summands *)
}

val is_uniform_expr : is_uniform:(string -> bool) -> Ast.expr -> bool
(** Whether an integer expression is loop-uniform: it mentions only uniform
    variables, no array loads, and only integer-valued operators. *)

val of_expr : loop_var:string -> is_uniform:(string -> bool) -> Ast.expr -> t option
(** Analyze a subscript. [is_uniform v] must say whether variable [v] holds
    the same value in every loop iteration. The loop variable itself is
    handled separately and must not be classified uniform. *)

val is_literal : t -> bool
(** No symbolic terms: the form is [coeff * i + const] exactly. *)
