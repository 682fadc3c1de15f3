(** Metrics registry: counters, gauges and fixed-bucket histograms
    registered by name, exported as Prometheus text exposition plus a
    JSONL event log.

    Everything is deterministic — histograms count into fixed buckets (no
    sampling, no interpolation), and the exposition lists series in
    registration order — so metric output can be asserted byte-for-byte
    in tests. Series are keyed by
    [(name, labels)]; registering the same key twice returns the same
    cell, registering one name with two different kinds raises. *)

type t
(** A registry. One per fleet run. *)

val create : unit -> t

type counter
type gauge
type histogram

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Monotone accumulator. [labels] distinguish series of one family
    (e.g. [("tenant", "alice")]). *)

val inc : counter -> float -> unit
(** Add [v >= 0]; negative increments raise [Invalid_argument]. *)

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge
val set : gauge -> float -> unit

val histogram :
  t -> ?help:string -> ?labels:(string * string) list -> ?buckets:float array -> string -> histogram
(** [buckets] are strictly increasing finite upper bounds; an implicit
    [+Inf] overflow bucket is always appended. *)

val observe : histogram -> float -> unit

val event : t -> time:float -> ?fields:(string * float) list -> string -> unit
(** Append one event to the JSONL log, stamped with simulated [time]. *)

val to_prometheus : t -> string
(** Prometheus text exposition: [# HELP]/[# TYPE] per family (in first
    registration order) followed by its series; histograms expand to
    [_bucket{le=...}], [_sum] and [_count] lines. *)

val events_to_jsonl : t -> string
(** One [{"t":..,"event":..,"fields":{..}}] object per line, in
    insertion order; empty string when no events were logged. *)
