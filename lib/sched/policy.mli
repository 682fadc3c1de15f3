(** Iteration-partitioning policies.

    [Equal] is the paper's §IV-B-2 scheme: every GPU receives the same
    number of iterations (±1). [Proportional] seeds each GPU's share from
    its roofline throughput for the kernel at hand, which only differs
    from [Equal] on heterogeneous machines. [Adaptive] starts from the
    proportional seed and re-splits from per-launch feedback, damped by an
    EWMA and gated by a hysteresis threshold and a gain-vs-movement-cost
    planner. *)

type t = Equal | Proportional | Adaptive

val of_string : string -> (t, string) result
(** Accepts ["static"]/["equal"], ["proportional"], ["adaptive"]. *)

val to_string : t -> string
(** ["static"], ["proportional"] or ["adaptive"] (the CLI spelling). *)
