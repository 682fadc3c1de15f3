(** The fabric's from-scratch allocator: the oracle of the incremental
    one ({!Mgacc_gpusim.Fabric.run}) and the baseline that [bench sim]
    measures its speedup against, with the helpers the tests and
    [bench sim] build batches with. It is not part of the library: no run
    calls it. *)

module Bag = Bag

val run_reference : Mgacc_gpusim.Fabric.t -> Mgacc_gpusim.Fabric.batch -> float array
(** Rebuilds the water-filling state on every event instead of
    maintaining it incrementally. Same contract as [Fabric.run]: each
    request's finish by its index in the batch, bit-identical to what
    [Fabric.run] writes into the batch's [finish] column. The batch is
    only read. *)

type request = {
  direction : Mgacc_gpusim.Fabric.direction;
  bytes : int;
  ready : float;  (** earliest start time *)
  tag : string;
}
(** One transfer, as a test writes it. *)

val batch_of : request list -> Mgacc_gpusim.Fabric.batch
(** A fresh batch holding the requests, in order. *)

val finishes : Mgacc_gpusim.Fabric.t -> request list -> float list
(** [Fabric.run] over {!batch_of}: each request's finish, in request
    order. *)
