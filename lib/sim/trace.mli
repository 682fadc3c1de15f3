(** Span trace of a simulated execution.

    Every timed operation (kernel, host-device copy, peer copy, reduction
    merge) records a span. The profiler aggregates spans by category to
    produce the paper's Fig. 8 breakdown, and the trace can be dumped as a
    text Gantt chart for debugging overlap behaviour. *)

type category =
  | Kernel  (** GPU kernel execution ("KERNELS" in Fig. 8) *)
  | Host_to_device  (** CPU -> GPU transfer ("CPU-GPU") *)
  | Device_to_host  (** GPU -> CPU transfer ("CPU-GPU") *)
  | Peer  (** GPU -> GPU transfer ("GPU-GPU") *)
  | Host_compute  (** CPU-side execution (OpenMP baseline) *)
  | Overhead  (** runtime bookkeeping: dirty-bit scans, buffer drains *)

type span = {
  id : int;  (** unique within one trace; allocated by {!record} *)
  causes : int list;
      (** ids of producer spans this span waited on (event gating); empty
          when the span started unconditionally *)
  resource : string;
  category : category;
  label : string;
  start : float;
  finish : float;
  bytes : int;  (** bytes moved, 0 for compute spans *)
}

type t
(** The spans in columns: times unboxed, the caller's name strings by
    pointer, causes in one flat buffer, each grown in chunks of a few
    kilobytes. Recording a span allocates nothing on the trace's side
    once the columns have grown to the run's size, and {!clear} keeps
    them. *)

val create : unit -> t
(** An empty trace; its columns grow with the first spans. *)

val record :
  t ->
  ?causes:int list ->
  ?tag:string ->
  resource:string ->
  category:category ->
  label:string ->
  start:float ->
  finish:float ->
  bytes:int ->
  unit ->
  int
(** Append a span with a freshly allocated id (the insertion index) and
    return that id, so the caller can thread it as a cause of downstream
    spans. Its causes are those given to {!cause} since the last span,
    then [causes]; they must reference earlier spans of the same trace.
    With [tag] the span's label is [label ^ ":" ^ tag], built only when
    the span is read. Raises [Invalid_argument] if [finish < start]. *)

val cause : t -> int -> unit
(** Add a cause to the next span {!record} appends, without building a
    list: the machine's transfer batches hand each transfer's causes
    this way. *)

val spans : t -> span list
(** In insertion order. *)

val clear : t -> unit
val makespan : t -> float
(** Latest finish time over all spans; 0 when empty. {!pp_gantt} scales
    its rows by it; "trace: totals and bytes" and "trace: columns equal the
    list reference" check it. *)

val pp_gantt : ?width:int -> Format.formatter -> t -> unit
(** Render one row per resource with time on the horizontal axis. *)

val to_chrome_json : ?process_name:string -> t -> string
(** Serialize as a Chrome trace-event JSON array (load it in
    chrome://tracing or https://ui.perfetto.dev): one complete event per
    span, one row per resource, timestamps in microseconds. Causal edges
    between spans are emitted as Perfetto flow events ([ph:"s"]/[ph:"f"])
    so the dependency DAG renders as arrows, and metadata ([ph:"M"])
    events name the process and each resource row. *)
