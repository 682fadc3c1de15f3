(** Critical-path blame ledger: the one store of a run's simulated
    seconds.

    The runtime records one {e epoch} per profiler charge: the exposed
    and hidden seconds of one phase, plus the trace span ids the charge
    covered. {!totals} sums them into the Fig. 8 categories that reports
    print, while the span ids let each makespan second be blamed on a
    concrete (category, array/kernel label) pair and the trace DAG yields
    the critical path. *)

type category = Kernel | Cpu_gpu | Gpu_gpu | Overhead
(** The profiler's Fig. 8 categories (H2D and D2H fold into [Cpu_gpu]). *)

val category_label : category -> string
(** The category's name in {!to_json} and {!pp}. The golden corpus
    (test/golden) prints its per-category rows with it. *)

type t
(** A blame ledger; one per runtime session. *)

val create : unit -> t

val charge :
  t ->
  ?spans:Mgacc_util.Int_buf.t * int ->
  category ->
  label:string ->
  exposed:float ->
  hidden:float ->
  unit
(** Record one {e epoch}: [label] is the phase label, e.g. ["comm"] or
    ["wait:kernels"]; [exposed] the seconds charged to the makespan,
    [hidden] those overlapped behind other work. [spans = (buf, from)]
    are the trace span ids the charge covered, [buf]'s ints from [from]
    on; the ledger copies them into its one buffer, so the caller may
    truncate [buf] back to [from] at once. The runtime's ledger is
    written only by [Profiler.charge]. *)

type totals = {
  t_categories : (category * float * float) list;
      (** (category, exposed, hidden) in the fixed order
          [Kernel; Cpu_gpu; Gpu_gpu; Overhead]: each a running sum of the
          category's epochs in recording order *)
  t_hidden : float;
      (** the positive hidden seconds of every epoch, summed in recording
          order: the seconds that ran off the critical path *)
}

val totals : t -> totals
(** The run's Fig. 8 breakdown. Reports and {!summarize} both read it,
    so they agree bit for bit. *)

type row = {
  r_category : category;
  r_label : string;  (** span label truncated to its first two [':']-separated components *)
  r_exposed : float;
  r_hidden : float;
  r_spans : int;  (** number of spans aggregated into this row *)
}

type summary = {
  s_makespan : float;
  s_categories : (category * float * float) list;
      (** [(totals t).t_categories] *)
  s_rows : row list;  (** per-(category, label) blame, sorted by exposed desc *)
  s_path : Mgacc_sim.Trace.span list;  (** critical path through the trace DAG *)
  s_path_seconds : float;
}

val summarize : t -> trace:Mgacc_sim.Trace.t -> summary
(** Epoch seconds are split across the epoch's spans proportionally to
    span duration (equally when all durations are zero); epochs with no
    spans — pure waits — become rows under the epoch label itself. *)

val pp : ?top:int -> Format.formatter -> summary -> unit
(** Render the category table and the [top] (default 10) blame rows. *)

val to_json : summary -> string
