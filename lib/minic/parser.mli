(** Recursive-descent parser for the mini-C subset and its OpenACC
    directives (including the paper's [localaccess] and [reductiontoarray]
    extensions).

    Directives attach to the statement that follows them, so
    [#pragma acc localaccess(...)] above [#pragma acc parallel loop] above a
    [for] parses as nested {!Ast.Spragma} wrappers around the loop. *)

val parse : file:string -> string -> Ast.program
(** Parse a translation unit. Raises {!Loc.Error} with a located message on
    any syntax error. *)

val parse_expr : file:string -> string -> Ast.expr
(** Parse a standalone expression (used by tests and by tools). Only the
    parser, affine and coalescing tests call it; {!parse} reaches an
    expression only inside a whole program. *)

val parse_directive : file:string -> line:int -> string -> Ast.directive
(** Parse a pragma payload, i.e. the text after [#pragma]. Only tests call it
    ("parser: directives", "parser: directive errors", "pragma parser is total
    on clause soup"): they feed pragma payloads alone, and {!parse} reaches
    one only inside a whole program. *)
