(** Hierarchical array reductions (the [reductiontoarray] extension).

    Each GPU accumulates its contributions into a private partial buffer
    (identity-initialized, [`System] memory). After the kernels, the
    partials are shipped to GPU 0, combined there with the base values, and
    the result is broadcast back to every replica — the top level of the
    paper's three-level reduction (shared memory and intra-GPU levels are
    already folded into the kernel cost model).

    With a single GPU the partial is still used (the kernel must not see
    its own partial results through the replica), but no transfers occur. *)

open Mgacc_minic

type t

val allocate : Rt_config.t -> Darray.t -> Ast.redop -> t
(** The destination array must currently be replicated. *)

val array_name : t -> string
val op : t -> Ast.redop

val reduce_f : t -> gpu:int -> int -> float array -> int -> unit
(** [reduce_f t ~gpu i bank slot] accumulates the double contribution in
    [bank.(slot)] into element [i] of the given GPU's partial (slot-passing,
    like {!Mgacc_exec.View.t.reduce_f}, so the value is never boxed). *)

val reduce_i : t -> gpu:int -> int -> int -> unit

type xfer_role = Gather | Bcast
(** Whether a merge transfer carries a partial toward GPU 0 or the
    combined result back out — explicit, so downstream consumers never
    have to sniff the destination endpoint. *)

type merge_result = {
  xfers : (Darray.xfer * xfer_role) list;
      (** gather to GPU 0 + broadcast to replicas *)
  combine_cost : Mgacc_gpusim.Cost.t;  (** the merge kernel on GPU 0 *)
}

val merge : Rt_config.t -> t -> Darray.t -> merge_result
(** Fold all partials into every replica buffer (functionally) and return
    the traffic and merge-kernel cost to charge. Frees the partials. *)

type lazy_merge_result = {
  rounds : (Darray.xfer * xfer_role * int) list;
      (** gathers (round 0) and binomial-tree broadcast edges tagged
          with their tree round, so the overlap DAG can pipeline
          round [r+1] edges behind their round-[r] source arrival *)
  lazy_combine_cost : Mgacc_gpusim.Cost.t;
  deferred_bytes : int;  (** broadcast bytes elided by deferral *)
}

val merge_lazy : Rt_config.t -> t -> Darray.t -> ship:[ `Defer | `Tree ] -> lazy_merge_result
(** Lazy-coherence merge: fold the partials into replica 0 only.
    [`Defer] (no future device read) marks the peers stale and elides
    the broadcast entirely; [`Tree] broadcasts the combined result down
    a binomial tree. Replica 0 must be fully valid on entry (the data
    loader pulls it coherent before a reduction launches). Frees the
    partials. *)
