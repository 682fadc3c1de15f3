(** Monte Carlo option pricing (the monte-carlo member of the paper's
    motivating application classes; not part of the paper's benchmark
    trio).

    Embarrassingly parallel: every path runs an independent per-thread LCG
    and geometric-Brownian walk, so there are no input arrays, no
    inter-GPU data dependencies, and scaling is bounded only by the
    reductions — a scalar [+] for the price estimate and a
    [reductiontoarray] histogram of payoffs. *)

type params = {
  paths : int;
  steps : int;
  bins : int;  (** payoff histogram size *)
  seed : int;
}

val default_params : params
val app : params -> App_common.t
