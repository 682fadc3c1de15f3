(** Launch-time bounds of a strip operand's subscript.

    A strip operand ({!Kernel_compile}, "Strips") reads or folds into
    element [a*b + c] or [a*b - c] of an array, over three int slots. When
    each slot's value over a whole launch comes from a source below, the
    elements the operand can touch lie in one interval, computed once when
    a GPU's frame is bound, from the GPU's iteration range and the bound
    scalars. An operand whose interval lies inside its window needs no
    check on any entry of that launch. *)

type src =
  | Const of int  (** a literal *)
  | Fixed of int  (** a kernel parameter no statement writes: its slot's bound value *)
  | Par  (** the parallel index: the GPU's iteration range *)
  | Ctr of { init : src; bound : src; op : Mgacc_minic.Ast.binop; step : int }
      (** the counter of an enclosing counted loop [for (v = init; v op
          bound; v += step)] that no statement of its body writes, with
          [op] [<] or [<=] for [step = 1] and [>] or [>=] for [step = -1] *)

val extent :
  int array -> lo:int -> hi:int -> a:src -> b:src -> c:src -> neg:bool -> last:bool -> int
(** [extent ints ~lo ~hi ~a ~b ~c ~neg ~last]: the least value ([last]:
    the greatest) that [a*b + c] ([a*b - c] when [neg]) can take on any
    entry, with the parallel index in [\[lo, hi)] and each [Fixed] slot at
    its value in [ints]. When a slot's bound leaves [(-2^30, 2^30)] it is
    [min_int] ([max_int]), which no window holds, rather than a guess, so
    no product or sum overflows. Allocates nothing. *)
