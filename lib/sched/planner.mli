(** Rebalance planner: commit a re-split only when it pays for itself.

    Moving iterations between GPUs moves the partitions of every
    block-distributed array with them, so a re-split is only worth
    committing when the predicted kernel-time gain — amortized over the
    launches the controller expects the new split to serve — exceeds the
    predicted cost of shipping the displaced partition elements across the
    fabric. Movement is priced with the same peer-link model the runtime
    charges ({!Mgacc_gpusim.Fabric.transfer_time_alone}). *)

type decision =
  | Keep
  | Rebalance of {
      weights : float array;  (** the committed new split *)
      predicted_gain : float;  (** kernel seconds saved per launch *)
      predicted_move : float;  (** one-time redistribution seconds *)
    }

val decide :
  machine:Mgacc_gpusim.Machine.t ->
  knobs:Feedback.knobs ->
  current:float array ->
  proposed:float array ->
  rates:float array ->
  iterations:int ->
  bytes_per_iter:int ->
  decision
(** [Keep] when the fractional gain is under the hysteresis threshold or
    the amortized gain does not cover the redistribution cost. *)
