(** SPMV: iterated sparse matrix-vector product in ELLPACK layout (the
    linear-algebra member of the paper's motivating "MapReduce dwarf"
    applications; not part of the paper's own benchmark trio).

    The padded value/column arrays carry [localaccess stride(width)] and
    distribute by rows; the dense vector is gathered through data-dependent
    column indices, so it stays replicated — and because each iteration
    overwrites it everywhere, its dirty reconciliation gives SPMV a
    communication intensity between KMEANS and BFS. Each outer iteration
    also normalizes with a scalar [+] reduction (power-iteration style). *)

type params = {
  rows : int;
  width : int;  (** padded entries per row *)
  iterations : int;
  seed : int;
}

val default_params : params
val app : params -> App_common.t
