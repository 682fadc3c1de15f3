(** Launch-time bounds of a strip operand's subscript.

    A strip operand ({!Kernel_compile}, "Strips") reads or folds into
    element [a*b + c] or [a*b - c] of an array, over three int slots. When
    each slot's value over a whole launch comes from a {!Form.src}, the
    elements the operand can touch lie in one interval, computed once when
    a GPU's frame is bound, from the GPU's iteration range and the bound
    scalars. An operand whose interval lies inside its window needs no
    check on any entry of that launch. *)

val extent :
  int array -> lo:int -> hi:int -> a:Form.src -> b:Form.src -> c:Form.src -> neg:bool -> last:bool -> int
(** [extent ints ~lo ~hi ~a ~b ~c ~neg ~last]: the least value ([last]:
    the greatest) that [a*b + c] ([a*b - c] when [neg]) can take on any
    entry, with the parallel index in [\[lo, hi)] and each [Fixed] slot at
    its value in [ints]. When a slot's bound leaves [(-2^30, 2^30)] it is
    [min_int] ([max_int]), which no window holds, rather than a guess, so
    no product or sum overflows. Allocates nothing. *)
