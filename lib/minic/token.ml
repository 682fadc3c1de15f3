type t =
  | Tint_lit of int
  | Tfloat_lit of float
  | Tident of string
  | Tkw of string
  | Tpunct of string
  | Tpragma of string
  | Teof

let to_string = function
  | Tint_lit n -> string_of_int n
  | Tfloat_lit f -> string_of_float f
  | Tident s -> s
  | Tkw s -> s
  | Tpunct s -> s
  | Tpragma s -> "#pragma " ^ s
  | Teof -> "<eof>"

let keywords =
  [ "int"; "double"; "float"; "void"; "if"; "else"; "for"; "while"; "return"; "break"; "continue" ]
