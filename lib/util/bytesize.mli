(** Human-readable byte sizes. *)

val to_string : int -> string
