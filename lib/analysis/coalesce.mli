(** Memory-coalescing classification of array access sites.

    For each syntactic subscript in a parallel loop body, decide how
    addresses relate *across concurrently executing iterations* (GPU
    threads):

    - {!Broadcast}: the address does not depend on the loop index — all
      threads of a warp read the same element (one transaction).
    - {!Coalesced}: addresses are affine in the loop index with unit
      stride — adjacent threads hit adjacent elements.
    - {!Strided}: affine with a larger constant stride — each access costs
      its own memory transaction; this is the pattern the paper's data
      layout transformation (array transposition) repairs.
    - {!Random}: data-dependent (gather/scatter).

    The analysis treats untainted private scalars (see {!Taint}) as
    uniform, so an inner sequential loop counter does not destroy the
    affine structure. *)

type mode = Broadcast | Coalesced | Strided of int | Random

type classifier = Mgacc_minic.Ast.expr -> mode

val make : Loop_info.t -> classifier
(** Build a classifier for subscripts of the given loop. *)

val apply_layout_transform : mode -> mode
(** The effect of transposing the array: strided affine accesses become
    coalesced; other modes are unchanged. *)
