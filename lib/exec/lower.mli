(** Lowering of typed mini-C to the first-order {!Form}, once per kernel
    body or host function.

    Lowering resolves names through a {!Frame.Layout.t}, declaring each
    variable where its scope opens, and raises a located {!Loc.Error} for
    what a kernel may not hold (user function calls, array declarations,
    [return], data or update directives) and for a [reductiontoarray]
    statement that is not a reduction with its declared operator. *)

open Mgacc_minic

val kernel :
  loop:Mgacc_analysis.Loop_info.t ->
  params:(string * Ast.typ) list ->
  classify:(string -> Ast.expr -> Mgacc_analysis.Coalesce.mode) ->
  Form.kernel
(** A parallel loop's body as a kernel over a fresh layout, with the
    parallel index and then [params] declared in it. A slot's source
    ({!Form.src}) is known for literals, the parallel index and parameters
    the body never writes, and the counters of counted loops. *)

val func : Ast.program -> Loc.t -> string -> Form.func
(** The named function of a program that typechecks, over a fresh layout.
    Its calls name their callees, which are lowered when they are built. *)

val int_expr : Ast.program -> Frame.Layout.t -> Ast.expr -> Form.iexp
val float_expr : Ast.program -> Frame.Layout.t -> Ast.expr -> Form.fexp
(** An expression of host code against the names of a layout. *)

val strips : Form.counted -> Form.spass list option
(** What a counted loop runs over strips, or [None] when it must run one
    trip at a time: the one eligibility predicate (kernel_compile.mli,
    "Strips"). The loop steps [++] under [<] or [<=], or [--] under [>] or
    [>=]. Each body statement is a plain or compound assignment or
    declaration of a double scalar, or a kernel's [reductiontoarray]
    update of a double array, over constants, scalars, double loads at a
    linear subscript ({!Form.lin}) in which the counter is at most one of
    the three slots, negation, [+ - * /] and double builtins. Each scalar
    and each updated array is written by one statement; no statement reads
    a scalar that it or a later statement writes, except an accumulator
    ([x = x op e], [x = e op x], [x op= e]); no statement reads an updated
    array. Pure: it reserves no slot. *)
