(** A simulated compute node: CPU, GPUs, interconnect, and a trace.

    The two presets replicate the paper's Table I platforms. All timed
    operations go through this module so that every span lands in the
    machine's trace with the right category for the Fig. 8 breakdown. *)

type t = {
  name : string;
  cpu : Spec.cpu;
  link : Spec.link;
  devices : Device.t array;
  fabric : Fabric.t;
  trace : Mgacc_sim.Trace.t;
  default_omp_threads : int;
}

val desktop : ?num_gpus:int -> unit -> t
(** 1x Core i7 + up to 2x Tesla C2075 (default 2), 12 OpenMP threads. *)

val supernode : ?num_gpus:int -> unit -> t
(** 2x Xeon X5670 + up to 3x Tesla M2050 (default 3), 24 OpenMP threads. *)

val desktop_mixed : unit -> t
(** A heterogeneous desktop: 1x Core i7 driving one Tesla C2075 and one
    Tesla M2050 over desktop PCIe. Not a paper platform — it exists to
    evaluate weighted iteration partitioning, where the C2075's higher
    effective bandwidth and clock should earn it the larger share. *)

val custom :
  ?flavor:Fabric.flavor ->
  ?topology:Fabric.topology ->
  name:string -> cpu:Spec.cpu -> gpu:Spec.gpu -> link:Spec.link -> num_gpus:int ->
  omp_threads:int -> unit -> t
(** A machine from its parts. Only "device OOM and distribution capacity"
    calls it, to build a machine around a GPU of its own; {!spec_of_string}
    names preset GPUs only. *)

val cluster : ?nodes:int -> ?gpus_per_node:int -> unit -> t
(** A GPU cluster (paper §VI, second future-work item): [nodes] desktop-class
    nodes (default 2) of [gpus_per_node] C2075 each (default 2), connected by
    a QDR-InfiniBand-class network (3.2 GB/s, 25 us). Peer transfers between
    nodes stage through both hosts and the wire; the OpenACC runtime needs no
    changes — only the fabric knows. *)

type spec =
  | Preset of string  (** desktop | desktop-mixed | supernode | cluster *)
  | Cluster_spec of { nodes : int; gpus_per_node : int }
  | Fat_tree_spec of { nodes : int; gpus_per_node : int; oversub : float }
  | Multi_rail_spec of { nodes : int; gpus_per_node : int; rails : int }
  | Nv_mesh_spec of { nodes : int; gpus_per_node : int }
(** A parsed [--machine] argument: a legacy preset name or a generative
    topology like [fattree:8x4]. *)

val spec_grammar : string
(** One-line description of the accepted spec strings, for error messages
    and --help. *)

val spec_of_string : string -> (spec, string) result
(** Parse a [--machine] spec: a preset name, or
    [cluster:NxM | fattree:NxM[:OVERSUB] | multirail:NxM[:RAILS] | nvmesh:NxM]
    where N is the node count and M the GPUs per node. *)

val spec_to_string : spec -> string
(** The canonical spelling; [spec_of_string (spec_to_string s) = Ok s]. *)

val spec_gpus : spec -> int
(** Total GPU count the spec builds (the preset's default count). *)

val of_spec : spec -> t
(** Build the machine a spec describes. *)

val num_gpus : t -> int
val device : t -> int -> Device.t

val launch_kernel_span :
  ?causes:int list ->
  t -> dev:int -> ready:float -> threads:int -> label:string -> Cost.t -> float * float * int
(** Run a kernel on device [dev] and record its [Kernel] span, citing
    [causes] (the producer span ids the launch was gated on); returns
    [(start, finish, span id)]. *)

val host_compute : t -> ready:float -> threads:int -> label:string -> Cost.t -> float * float
(** Run a parallel loop on the host CPU model; records a [Host_compute]
    span. *)

val run_transfers_spans : t -> label:string -> Fabric.batch -> unit
(** Run a batch of transfers under fair bandwidth sharing ({!Fabric.run})
    and record a span for each non-empty transfer, in request order, with
    its direction's category, labelled [label ^ ":" ^ tag] and citing the
    request's causes. Each request's finish and span id (-1 for a
    zero-byte request, which records no span) are left in the batch's
    [finish] and [span] columns. *)

val transfer_sync : t -> ready:float -> Fabric.direction -> bytes:int -> label:string -> float
(** One uncontended transfer; records its span; returns the finish time. *)

val overhead_span :
  ?causes:int list -> t -> ready:float -> seconds:float -> label:string -> float * int option
(** Charge fixed runtime bookkeeping time on the host, citing [causes];
    returns the finish and the recorded span id ([None] when
    [seconds <= 0], which records nothing). *)

val reset : t -> unit
(** Clear the trace and all device timelines/memory peaks. *)
