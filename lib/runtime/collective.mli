(** Topology-aware collective transfer planner (docs/MODEL.md,
    "Collectives").

    The communication manager emits logical transfer demands; broadcast
    groups among them (same payload, one root, many destinations — dirty
    replica merges, reduction result broadcasts) default to a
    point-to-point star that serializes [p-1] copies of the payload on
    the root's egress link and, on clusters, crosses the inter-node wire
    once per remote destination. This module lowers each group into a
    topology-shaped schedule instead:

    - {b ring}: the participants form a node-grouped chain; each hop
      forwards the payload to its successor, so every link moves at most
      one copy and the wire is crossed once per node boundary;
    - {b hierarchical}: on {!Mgacc_gpusim.Fabric.topology} machines, the
      root sends one copy per remote node to a leader there, and leaders
      re-broadcast locally — the star's per-destination wire crossings
      collapse to one per node;
    - {b chunked pipelining}: payloads split into fixed-size segments
      whose per-hop forwarding is [ready]-gated on (a) the same segment's
      arrival at the previous hop and (b) the previous segment clearing
      the same edge, so segment [k+1] streams while segment [k] forwards.

    Algorithm choice per group is a payload-size/latency cost model in
    the NCCL style; [--collective direct] bypasses this module entirely
    (the legacy schedules, bit for bit). Non-broadcast ops (window
    ships, misses, halos, gathers) pass through point-to-point.

    Planning a broadcast group costs O(destinations + GPUs) array steps:
    its ops are indexed by destination GPU, the ring order is one pass
    over the GPU ids, and the estimates read a pair's latency and
    bandwidth per class (same-node or cross-node), which the fabric
    makes uniform, so a plan reads each class from the fabric once. *)

module Fabric = Mgacc_gpusim.Fabric

type item = {
  dir : Fabric.direction;
  bytes : int;
  tag : string;
  level : int;
      (** wavefront batch index: the executor runs level [l] as one
          fabric batch after every item of levels [< l] has finished *)
  dep : int;
      (** plan index whose completion gates this item (the same
          segment's previous hop, or a tree edge's source arrival);
          [-1] = none. Always at a strictly lower level. *)
  dep2 : int;
      (** second gate: the previous segment on the same edge (serializes
          segments of one edge so downstream hops see a staggered,
          pipelined stream); [-1] = none *)
  op : Comm_manager.op;
      (** the originating logical op — for a forwarded segment, the group
          op whose destination this item delivers to, so completion
          bookkeeping (events, arrival tables) needs no new cases *)
}

type plan = item array

type stats = {
  rings : int;  (** groups lowered to ring schedules *)
  hierarchies : int;  (** groups lowered to hierarchical staging *)
  direct_groups : int;  (** eligible groups the cost model kept direct *)
  segments : int;  (** total pipelining segments across planned groups *)
  allreduces : int;
      (** reduction groups (gathers + result broadcast sharing one group
          id) recognized as allreduces and lowered to ring
          reduce-scatter/all-gather or gather + hierarchical broadcast *)
}

val no_stats : stats

val add_stats : stats -> stats -> stats

val plan : cfg:Rt_config.t -> fabric:Fabric.t -> Comm_manager.op list -> plan * stats
(** Lower the ops (in order) into an executable plan. Ops sharing a
    non-negative {!Comm_manager.op.group} are planned as one collective;
    everything else passes through as independent level-0 items. Byte
    totals are conserved: the plan carries exactly [p-1] copies of each
    group payload, however it is shaped. With [cfg.collective = Ring]
    eligible groups always take the ring; with [Auto] the cost model
    picks direct, ring or hierarchical per group. Raises
    [Invalid_argument] if a grouped peer-to-peer op names a device
    outside the fabric. *)

val execute :
  plan:plan ->
  base:(item -> float * int list) ->
  run:((Fabric.request * int list) list -> (Fabric.completion * int option) list) ->
  on_complete:(item -> Fabric.completion -> int option -> unit) ->
  unit ->
  float
(** Run the plan level by level: [base item] is the item's own ready
    time and causes; its ready time is the max of that and its gates'
    finishes, each level is one fabric
    batch (so same-level segments contend and stagger properly), and
    [on_complete] fires per item with its completion and trace span id.
    Causal edges are threaded through: each request carries the causes
    from [base item] plus the span ids of its [dep]/[dep2] gates, and
    [run] returns the span id recorded for each completion (so forwarded
    segments chain into a visible flow in the trace). Returns the max
    finish, or [neg_infinity] for an empty plan. *)
