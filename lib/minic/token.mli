(** Tokens of the mini-C language (and of pragma lines, which reuse the
    same lexer). *)

type t =
  | Tint_lit of int
  | Tfloat_lit of float
  | Tident of string
  | Tkw of string  (** reserved word: int, double, float, void, if, else, for, while, return, break, continue *)
  | Tpunct of string  (** operator or punctuation, e.g. "+", "<=", "(", "[", ":" *)
  | Tpragma of string  (** a whole [#pragma ...] line, raw text after "#pragma" *)
  | Teof

val to_string : t -> string
val keywords : string list
