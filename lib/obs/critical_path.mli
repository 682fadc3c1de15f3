(** Critical-path analysis over a span DAG.

    Edges come from two sources: explicit [causes] edges recorded by the
    runtime (event gating), and implicit same-resource ordering (a
    resource executes its spans in insertion order). The pass extracts
    the longest duration-weighted path through that DAG and, via a
    time-sweep in start order, splits every span into an exposed part
    (this span advanced the frontier) and a hidden part (it ran in the
    shadow of earlier spans). *)

type attribution = {
  span : Mgacc_sim.Trace.span;
  exposed : float;  (** seconds by which this span advanced the time frontier *)
  hidden : float;  (** seconds overlapped with already-covered time *)
  on_path : bool;  (** true when the span lies on the critical path *)
}

type t = {
  makespan : float;
  path : Mgacc_sim.Trace.span list;  (** critical path, in execution order *)
  path_seconds : float;  (** total duration along [path] *)
  spans : attribution list;  (** every input span, in input order *)
}

val analyze : Mgacc_sim.Trace.span list -> t
(** [causes] ids referencing spans absent from the list (or appearing
    later than the consumer) are ignored; span ids must be unique and
    non-negative, as a trace's are. *)
