(** Hierarchical array reductions (the [reductiontoarray] extension).

    Each GPU accumulates its contributions into a private partial buffer
    (identity-initialized, [`System] memory). After the kernels, the
    partials are shipped to GPU 0, combined there with the base values, and
    the result is published back to the replicas — the top level of the
    paper's three-level reduction (shared memory and intra-GPU levels are
    already folded into the kernel cost model). There is one merge for
    both coherence policies; they differ only in the broadcast shape
    ({!merge}'s [ship]).

    With a single GPU the partial is still used (the kernel must not see
    its own partial results through the replica), but no transfers occur. *)

open Mgacc_minic

type t

val allocate : Rt_config.t -> Darray.t -> Ast.redop -> t
(** The destination array must currently be replicated. *)

val op : t -> Ast.redop

val reduce_f : t -> gpu:int -> int -> float array -> int -> unit
(** [reduce_f t ~gpu i bank slot] accumulates the double contribution in
    [bank.(slot)] into element [i] of the given GPU's partial (slot-passing,
    like {!Mgacc_exec.View.t.reduce_f}, so the value is never boxed).
    Unchecked: [i] must be in [\[0, length)]; the reduction view checks
    it and raises {!Mgacc_exec.View.Bounds}. *)

val reduce_i : t -> gpu:int -> int -> int -> unit
(** The int counterpart of {!reduce_f}, unchecked the same way. *)

val partial_f : t -> gpu:int -> float array
(** The given GPU's double partial, which {!reduce_f} folds into in place
    with {!op}; the reduction view's reduction window
    ({!Mgacc_exec.View.t.rwin}). Raises [Invalid_argument] on an int
    reduction. *)

val touch : t -> gpu:int -> unit
(** Mark the GPU as having contributed, as every {!reduce_f} and
    {!reduce_i} does; only a GPU marked ships its partial in {!merge}.
    Idempotent. *)

type xfer_role = Gather | Bcast
(** Whether a merge transfer carries a partial toward GPU 0 or the
    combined result back out — explicit, so downstream consumers never
    have to sniff the destination endpoint. *)

type merge_result = {
  xfers : (Darray.xfer * xfer_role * int) list;
      (** the gathers to GPU 0, then the broadcast edges, each with its
          broadcast round (0 for gathers and for a star) *)
  combine_cost : Mgacc_gpusim.Cost.t;  (** the merge kernel on GPU 0 *)
  deferred_bytes : int;  (** broadcast bytes elided by [`Defer] *)
}

val merge : Rt_config.t -> t -> Darray.t -> ship:[ `Star | `Tree | `Defer ] -> merge_result
(** Fold the partials into replica 0 and publish the result to the
    peers. [ship] is the coherence policy's broadcast shape: [`Star]
    (eager coherence) sends it from GPU 0 to every peer in round 0;
    [`Tree] (lazy coherence, a later kernel reads the array) sends it
    down a binomial tree whose edges carry their round, so round [r+1]
    can start behind its source's round-[r] arrival; [`Defer] (lazy
    coherence, no later kernel reads it) marks the peers stale and ships
    nothing. Under [`Star] and [`Tree] every replica ends fully valid
    with the same contents. Replica 0 must be fully valid on entry.
    Frees the partials. *)
