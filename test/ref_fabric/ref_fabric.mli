(** The fabric's from-scratch allocator: the oracle of the incremental
    one ({!Mgacc_gpusim.Fabric.run_batch}) and the baseline that
    [bench sim] measures its speedup against. It is not part of the
    library: no run calls it. *)

module Bag = Bag

val run_batch_reference :
  Mgacc_gpusim.Fabric.t -> Mgacc_gpusim.Fabric.request list -> Mgacc_gpusim.Fabric.completion list
(** Rebuilds the water-filling state on every event instead of
    maintaining it incrementally. Same contract, and bit-identical
    completions, as [Fabric.run_batch]. *)
