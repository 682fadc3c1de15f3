(** A growable buffer of ints: one flat store for many short runs of ids
    (a trace's causes, the blame ledger's span ids, a batch's causes) or
    for a column of a long table, so that none of them costs a list cell
    or a record per entry. It grows in chunks of a few kilobytes, so a
    buffer of any length never allocates one large block (a block past
    the allocator's threshold costs fresh pages on every run that grows
    it), and it keeps its chunks when truncated, so a buffer reused run
    after run stops allocating once it has grown. *)

type t

val create : unit -> t
(** Empty, with no storage until the first {!push}. *)

val length : t -> int

val get : t -> int -> int
(** Raises [Invalid_argument] outside [0 .. length - 1]. *)

val push : t -> int -> unit

val truncate : t -> int -> unit
(** Keep the first [n] ints ([0 <= n <= length]). *)

val append : t -> t -> from:int -> unit
(** [append dst src ~from] pushes [src]'s ints [from .. length src - 1]
    onto [dst], in order. *)
