(** Source locations for diagnostics. *)

type t = { file : string; line : int; col : int }

val dummy : t
val make : file:string -> line:int -> col:int -> t
val to_string : t -> string
(** "file:line:col". *)

exception Error of t * string
(** The frontend's diagnostic exception: location plus message. *)

val error : t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [error loc fmt ...] raises {!Error} with a formatted message. *)
