(** PCIe interconnect model with max-min fair bandwidth sharing.

    Concurrent transfers share link capacity: each transfer occupies the
    per-device link direction(s) it crosses plus the host root-complex
    aggregate, and a fluid-flow simulation (progressive filling between
    arrival/completion events) assigns max-min fair rates. This captures the
    effect the paper observes in Fig. 8: loading N GPUs concurrently does not
    divide CPU-GPU time by N, because the host side saturates. *)

type topology = {
  gpus_per_node : int;
  internode_bandwidth : float;  (** network rate between nodes, bytes/s *)
  internode_latency : float;  (** per-transfer setup across the network *)
}
(** Multi-node clusters (the paper's §VI second future-work item): GPUs
    [g] live on node [g / gpus_per_node]; peer transfers between nodes
    stage through both hosts and the network, with the network's own
    bandwidth and latency. The runtime is unchanged — everything routes
    through the fabric. *)

type flavor =
  | Wire  (** a flat per-node wire — the pre-generative semantics, byte-identical *)
  | Fat_tree of { oversub : float }
      (** per-node injection at the internode rate, but all cross-node flows
          additionally share a spine whose capacity is the bisection
          ([internode_bandwidth * nodes / oversub]) *)
  | Multi_rail of { rails : int }
      (** [rails] independent inter-node networks; a node pair's traffic is
          pinned to rail [(src_node + dst_node) mod rails], so aggregate
          cross-node bandwidth scales with the rail count *)
  | Nvlink_mesh of { nv_bandwidth : float; nv_latency : float }
      (** same-node peer transfers ride dedicated per-GPU port pairs
          (bypassing PCIe and the host root complex) at NVLink-class
          bandwidth/latency; cross-node traffic is unchanged *)
(** How the links between nodes (and, for NVLink, within a node) are
    organized. [Wire] is the default and is bit-identical to the
    pre-flavor fabric: same resources, same dense-id layout, same caps. *)

type resource =
  | Down of int  (** host -> device link of GPU [i] *)
  | Up of int  (** device [i] -> host link *)
  | Host_aggregate of int  (** root complex / QPI shared capacity of a node *)
  | Net_up of int  (** node [n] -> network *)
  | Net_down of int  (** network -> node [n] *)
  | Spine  (** fat-tree bisection shared by every cross-node flow *)
  | Rail_up of int  (** rail injection pipe, indexed [node * rails + rail] *)
  | Rail_down of int  (** rail delivery pipe, same indexing *)
  | Nv_out of int  (** NVLink egress port of GPU [g] *)
  | Nv_in of int  (** NVLink ingress port of GPU [g] *)

type direction =
  | H2d of int  (** host to device [i] *)
  | D2h of int
  | P2p of int * int  (** device [src] to device [dst] *)

type request = {
  direction : direction;
  bytes : int;
  ready : float;  (** earliest start time (data dependency) *)
  tag : string;  (** label recorded in the trace *)
}

type completion = { req : request; start : float; finish : float }

type t

val create : ?flavor:flavor -> ?topology:topology -> Spec.link -> num_gpus:int -> t
(** Without [topology], all GPUs share one node (the paper's setting).
    [flavor] defaults to [Wire], which is bit-identical to the
    pre-generative fabric. *)

val node_of : t -> int -> int
(** The node hosting a GPU. *)

val same_node : t -> int -> int -> bool
(** Whether two GPUs share a node (always true without a topology). *)

val topology : t -> topology option

val flavor : t -> flavor

val flavor_name : t -> string
(** The flavor's spec keyword: wire, fattree, multirail or nvmesh. *)

val num_gpus : t -> int

val standalone_bandwidth : t -> direction -> float
(** Peak rate of a transfer running alone (min of its caps).
    @raise Invalid_argument on an out-of-range device or a [P2p] whose
    source is its destination. *)

val latency_of : t -> direction -> float
(** Per-transfer setup latency (link latency, plus the internode latency
    for cross-node peer transfers). Raises like {!standalone_bandwidth}.
    Both read a per-direction route computed on first use and kept. *)

val transfer_time_alone : t -> direction -> bytes:int -> float
(** Latency + bytes / standalone rate; the uncontended duration. *)

val resource_name : t -> direction -> string
(** The trace resource a transfer's span records: [pcie:h2dI],
    [pcie:d2hI] or [pcie:p2pI-J]. Read from the same per-direction route
    as {!latency_of}, so every span of a direction shares one string.
    Raises like {!standalone_bandwidth}. *)

val run_batch : t -> request list -> completion list
(** Simulate the batch under fair sharing. Completions are returned in the
    order of the requests. The fabric is stateless across batches (the BSP
    runtime separates batches with barriers). Zero-byte requests complete
    instantly at their ready time, with no latency charge.
    @raise Invalid_argument if a request has negative bytes, or (naming
    the request's tag) if the event loop ever fails to complete a flow —
    a simulator invariant violation, never expected in normal use. *)

val map_batch : t -> ('a -> request) -> ('a -> completion -> 'b) -> 'a list -> 'b list
(** [map_batch t req_of f xs] runs the batch [List.map req_of xs] like
    {!run_batch} and returns [f x c] for each element and its completion,
    calling [f] in list order. It saves a caller that pairs requests with
    data of its own from copying them out and zipping the completions
    back. *)

val run_batch_reference : t -> request list -> completion list
(** The from-scratch allocator: rebuilds the water-filling state on every
    event instead of maintaining it incrementally. Same contract — and
    bit-identical completions — as {!run_batch}; kept as the equivalence
    oracle for the incremental fast path and as the baseline that
    [bench sim] measures its speedup against. *)
