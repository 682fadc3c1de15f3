(** Online feedback controller: EWMA of observed per-GPU iteration rates.

    After every launch of a loop the runtime reports how many iterations
    each GPU ran and how long its kernel took. The controller keeps a
    damped estimate of each device's rate and proposes the weight vector
    that would equalize finish times under those rates. Two stabilizers
    keep well-balanced workloads from churning: the EWMA damping factor
    [alpha] (weight of the newest sample) and the hysteresis threshold —
    the fractional gain of a {!proposal} must exceed [hysteresis] before
    the planner even considers a re-split. *)

type knobs = {
  alpha : float;  (** EWMA weight of the newest rate sample, in (0, 1] *)
  hysteresis : float;
      (** minimum predicted fractional kernel-time gain before a re-split
          is considered (e.g. 0.02 = 2%) *)
  payoff_launches : float;
      (** how many future launches a re-split is amortized over when the
          planner weighs gain against data-movement cost *)
  min_share : float;  (** smallest weight any GPU may be assigned *)
}

val default_knobs : knobs
(** alpha = 0.5, hysteresis = 0.02, payoff_launches = 4.0,
    min_share = 0.02. *)

type t

val create : knobs -> num_gpus:int -> t

val observe : t -> iterations:int array -> seconds:float array -> unit
(** Fold one launch into the EWMA. Entries with zero iterations or
    non-positive time carry no sample and leave that device's estimate
    unchanged. *)

val rates : t -> float array option
(** Current smoothed per-GPU rates; [None] until every device has at
    least one sample (a device that never ran cannot be rated). *)

type proposal = {
  rates : float array;  (** the smoothed per-GPU rates, as {!rates} *)
  weights : float array;
      (** the rates normalized into the time-equalizing weight vector
          (at least [min_share] each) and quantized, as a re-split applies
          them *)
  t_current : float;
  t_proposed : float;
      (** the straggler time of one launch under [current] and under
          [weights], up to the iteration-count factor: [max_g w.(g) /
          rates.(g)] *)
}

val propose : t -> current:float array -> proposal option
(** The re-split the smoothed rates propose against the [current]
    weights; [None] until every device is rated. The scheduler considers
    it only when [weights] differ from [current] and [(t_current -
    t_proposed) / t_current] exceeds [hysteresis]. *)
