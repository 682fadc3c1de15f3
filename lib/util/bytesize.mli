(** Human-readable byte sizes. *)

val pp : Format.formatter -> int -> unit
(** Render a byte count like "444.9MB" (decimal point, binary units),
    matching the style of the paper's Table II. *)

val to_string : int -> string

val of_mib : float -> int
(** No run calls this or {!to_mib}; "bytesize: formatting" pins the round
    trip. *)

val to_mib : int -> float
(** Exported with {!of_mib}. *)
