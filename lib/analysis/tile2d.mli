(** 2-D block-decomposition eligibility analysis.

    A parallel loop qualifies for a 2-D (row x column) decomposition when
    it is a row-major stencil: an outer parallel loop over rows with
    [localaccess] windows, one inner parallel (vector) loop over columns,
    and every subscript of every distributed array of the shape
    [(row + dr) * stride + col + dc] with literal offsets — exactly what
    the parser's 2-D subscript desugaring produces. Reads determine the
    per-array column halo; writes must hit the iteration's own cell so
    that restricting the column loop keeps all writes inside the tile.

    The decision is conservative: any subscript that does not fit (or a
    loop with no inner parallel loop, mixed strides, or distributed
    reduction destinations) disables tiling and the runtime keeps the
    pinned 1-D path. *)

open Mgacc_minic

type halo = { row_l : int; row_r : int; col_l : int; col_r : int }
(** Per-array halo widths of a 2-D stencil: rows above/below and columns
    left/right of the owned tile that reads may touch. *)

type t = {
  inner_var : string;  (** the inner (column) loop variable *)
  stride : Ast.expr;  (** row width shared by every distributed array *)
  halos : (string * halo) list;  (** per-array stencil halo widths *)
}

val col_lo_param : string
(** ["__col_lo"] — reserved int kernel parameter carrying each GPU's
    first owned column. *)

val col_hi_param : string
(** ["__col_hi"] — one past each GPU's last owned column. *)

val analyze : Loop_info.t -> configs:Array_config.t list -> t option
(** [None] when the loop is not 2-D eligible. *)

val halo_of : t -> string -> halo
(** The halo of one array (all-zero if it has no accesses). *)

val restrict_columns : Loop_info.t -> inner_var:string -> Loop_info.t
(** Rewrite the body so inner loops over [inner_var] iterate only
    [[__col_lo, __col_hi)]: the init clamps up via the [max] builtin, the
    condition gains a [< __col_hi] conjunct. With sentinel bounds
    (min_int, max_int) the rewritten loop is behaviorally identical to
    the original. *)

val grid_of : num_gpus:int -> int * int
(** [(pr, pc)] with [pr * pc = num_gpus] and [pc] the largest divisor not
    exceeding [sqrt num_gpus] — the canonical process grid both the
    runtime's darray tiles and the kernel column bounds are derived
    from. *)
