(** The adaptive multi-GPU scheduler the runtime consults on every launch.

    One scheduler lives per runtime instance and keeps per-loop state: the
    committed weight vector plus that loop's feedback controller. The
    runtime asks {!weights_for} before splitting an iteration space and
    reports measured per-GPU kernel times through {!observe}; under the
    [Adaptive] policy the observation may commit a re-split for the next
    launch of the same loop (gated by the controller's hysteresis and the
    planner's gain-vs-movement-cost test).

    Policy behavior:
    - [Equal]: {!weights_for} is always [None] — the caller uses the
      paper's equal split, bit-identical to the original runtime.
    - [Proportional]: a static seed from the roofline cost model; [None]
      on homogeneous machines (falls back to the equal split).
    - [Adaptive]: the proportional seed (equal for loops the translator
      flags as irregular, where per-iteration cost skew defeats a static
      model), then feedback-driven re-splits. *)

type workload = Uniform | Irregular

type t

val create :
  machine:Mgacc_gpusim.Machine.t ->
  num_gpus:int ->
  policy:Policy.t ->
  knobs:Feedback.knobs ->
  t

val weights_for :
  t ->
  loop_id:int ->
  iterations:int ->
  threads_per_iter:int ->
  iter_cost:Mgacc_gpusim.Cost.t ->
  workload:workload ->
  float array option
(** The split to use for this launch; [None] means the equal split. *)

val observe_events :
  t ->
  loop_id:int ->
  iterations:int array ->
  starts:float array ->
  finishes:float array ->
  total_iterations:int ->
  bytes_per_iter:int ->
  bool
(** Report one launch's per-GPU iteration counts and kernel start and
    finish events. Each GPU's rate comes from its own busy span
    [finish - start], so event-gated launches (where GPUs no longer start
    together) still feed the controller unskewed. Returns [true] when a
    re-split was committed for the loop's next launch (only ever under
    [Adaptive]). *)
