(** Source-level pretty-printing of the AST, for diagnostics and tests.

    Output is valid mini-C: [parse (print (parse s))] succeeds and yields an
    equivalent program (round-trip property tested in the suite). *)

val expr_to_string : Ast.expr -> string
val directive_to_string : Ast.directive -> string
val program_to_string : Ast.program -> string
