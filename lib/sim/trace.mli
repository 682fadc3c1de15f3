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

val category_label : category -> string

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

val create : unit -> t

val add : t -> span -> unit
(** Append a caller-built span verbatim (tests build DAGs this way).
    Production code should use {!record}, which allocates the id. *)

val record :
  t ->
  ?causes:int list ->
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
    spans. [causes] must reference earlier spans of the same trace. *)

val spans : t -> span list
(** In insertion order. *)

val clear : t -> unit
val total_in : t -> category -> float
(** Sum of span durations in a category (not dedup'd for overlap). *)

val bytes_in : t -> category -> int
val makespan : t -> float
(** Latest finish time over all spans; 0 when empty. *)

val busy_union : t -> (category -> bool) -> float
(** Length of the union of span intervals whose category satisfies the
    predicate — wall-clock time during which at least one matching span was
    active. This is what the paper's per-phase breakdown measures. *)

val pp_gantt : ?width:int -> Format.formatter -> t -> unit
(** Render one row per resource with time on the horizontal axis. *)

val to_chrome_json : ?process_name:string -> t -> string
(** Serialize as a Chrome trace-event JSON array (load it in
    chrome://tracing or https://ui.perfetto.dev): one complete event per
    span, one row per resource, timestamps in microseconds. Causal edges
    between spans are emitted as Perfetto flow events ([ph:"s"]/[ph:"f"])
    so the dependency DAG renders as arrows, and metadata ([ph:"M"])
    events name the process and each resource row. *)
