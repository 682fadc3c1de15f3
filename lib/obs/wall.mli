(** Host wall-clock spans: where one run's host time goes, layer by layer.

    The simulated clock says how long the modelled machine takes; this
    recorder says how long the host takes to compute it. Code marks the
    layer it is entering with {!enter} and marks its end with {!leave};
    spans nest, and a span's time excludes the spans opened inside it, so
    every nanosecond between {!start} and {!stop} is attributed to exactly
    one layer (time outside every span to {!Other}). The layer times
    therefore sum to the recorded wall time, less the clock reads.

    Each layer is also credited the minor words the calling domain
    allocated while it was the innermost span ({!words}), read from
    [Gc.minor_words], whose external returns an unboxed float: reading it
    allocates nothing. Words allocated by a launch's pool workers are
    not counted; they are the other domains'.

    The recorder is off by default and is one global, for the process:
    while it is off, {!enter} and {!leave} test a flag and return, and
    allocate nothing. It reads a monotonic clock and never touches
    simulated state, so a run's simulated output is the same with it on or
    off. A span left open by an exception stays open until the next
    {!start}. *)

type layer =
  | Parse  (** the front end's parser *)
  | Plan  (** typechecking, analysis, fusion and kernel planning *)
  | Host  (** the host program: host code compiled and run *)
  | Kernel_compile  (** compiling a parallel loop's body, once per loop site *)
  | Load  (** the data loader deciding a launch's device copies *)
  | Kernels  (** the kernel executor: a launch's iterations on every GPU *)
  | Reconcile  (** building a launch's coherence and reduction ops *)
  | Collective_plan  (** looking up or building a launch's collective plan *)
  | Comms  (** the fabric: timing a batch of transfers and recording its spans *)
  | Charge  (** timing kernels and overheads, and charging phases to the profile *)
  | Hook  (** the rest of a parallel-loop hook: scheduling, splitting, bookkeeping *)
  | Data  (** data and update directives and the end-of-program flush *)
  | Report  (** building the run's report *)
  | Other  (** everything outside a span *)

val all : layer list
(** Every layer, in the order above. Programs read the recorder through
    {!pp}; this and the readers below ({!name}, {!seconds}, {!spans},
    {!words}, {!elapsed}) are for "wall profile: simulated output
    unchanged, layers within the run" and "wall profile: a span is
    credited the words it allocates", which check the table's numbers one
    by one, and for a scratch harness that divides a layer's time by its
    run count. *)

val name : layer -> string

val start : unit -> unit
(** Zero every layer and start recording, in {!Other}. *)

val stop : unit -> unit
(** Stop recording; the times stay readable until the next {!start}. *)

val enter : layer -> unit
(** Open a span of [layer] inside the current one. *)

val leave : unit -> unit
(** Close the innermost open span. *)

val seconds : layer -> float
(** The layer's own time, spans opened inside it excluded. *)

val spans : layer -> int
(** How many spans of the layer were opened. *)

val words : layer -> int
(** The minor words the calling domain allocated in the layer's own
    time, spans opened inside it excluded. *)

val elapsed : unit -> float
(** The recorded wall time: {!start} to {!stop}, or to now while
    recording. *)

val pp : Format.formatter -> unit -> unit
(** The per-layer table: milliseconds, share of {!elapsed}, span count
    and minor words for every layer that recorded time, then the
    total. *)
