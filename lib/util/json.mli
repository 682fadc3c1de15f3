(** The one JSON value type of the tree: the bench artifacts are printed
    by {!to_string}, and the artifact tests and [tools/validate_obs]
    read JSON back through {!of_string}. Every hand-built JSON string in
    the libraries escapes its text through {!escape}. *)

type t =
  | Null
  | Bool of bool
  | Num of float  (** integers up to 2{^53} are exact *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in printing order *)

val int : int -> t
(** [Num] of an integer. *)

val escape : string -> string
(** Escape a string for embedding in a JSON literal (no surrounding
    quotes added): a double quote, a backslash and a newline get their
    short escapes, any other control character becomes a [\u00XX]
    escape. *)

val to_string : t -> string
(** Print a value, without a trailing newline. A container whose members
    are all scalars (or empty containers) goes on one line; any other
    container puts each member on its own line, indented two spaces per
    level. A number prints as an integer when it is one below 10{^15},
    else with nine significant digits ([%.9g], the artifacts'
    precision); a non-finite number prints as [null]. *)

exception Parse_error of string
(** The reason and the byte offset it was found at. *)

val of_string : string -> t
(** Parse one JSON value, surrounded by optional whitespace. String
    escapes are decoded, [\uXXXX] ones to UTF-8. Raises {!Parse_error} on
    malformed input or trailing garbage.
    [of_string (to_string v) = v] for every [v] whose numbers print
    exactly. *)

val member : string -> t -> t option
(** The value of an object's member; [None] for a missing key or a
    non-object. *)
