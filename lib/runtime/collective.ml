module Fabric = Mgacc_gpusim.Fabric

type item = {
  dir : Fabric.direction;
  bytes : int;
  tag : string;
  level : int;
  dep : int;
  dep2 : int;
  op : Comm_manager.op;
}

type plan = item array

type stats = {
  rings : int;
  hierarchies : int;
  direct_groups : int;
  segments : int;
  allreduces : int;
}

let no_stats =
  { rings = 0; hierarchies = 0; direct_groups = 0; segments = 0; allreduces = 0 }

let add_stats a b =
  {
    rings = a.rings + b.rings;
    hierarchies = a.hierarchies + b.hierarchies;
    direct_groups = a.direct_groups + b.direct_groups;
    segments = a.segments + b.segments;
    allreduces = a.allreduces + b.allreduces;
  }
(* ------------------------------------------------------------------ *)
(* Group analysis                                                      *)

(* A group's ops reach one destination each, so the shape keeps them in
   an array indexed by GPU id: analysis, ordering and lowering each take
   one pass over the destinations or the GPUs. *)
type group_shape = {
  root : int;
  dsts : int array;  (* distinct, in op order *)
  payload : int;  (* bytes, identical across the group's ops *)
  op_of_dst : Comm_manager.op option array;  (* by GPU id; [None] if not a destination *)
}

let op_to shape d = Option.get shape.op_of_dst.(d)

(* A group is reshapeable iff it is a well-formed broadcast: every op is
   peer-to-peer with the same byte count, destinations are distinct, and
   exactly one endpoint (the root) sends without ever receiving. Tree
   schedules qualify — sources vary but all carry the same payload.
   [n] is the fabric's GPU count; {!plan} has checked every endpoint. *)
let analyze n (gops : Comm_manager.op list) =
  match gops with
  | [] -> None
  | first :: _ ->
      let payload = first.Comm_manager.bytes in
      let op_of_dst = Array.make n None and sends = Array.make n false in
      let dsts = Array.make (List.length gops) 0 in
      let rec scan k = function
        | [] -> payload > 0
        | (op : Comm_manager.op) :: rest -> (
            match op.Comm_manager.dir with
            | Fabric.P2p (s, d)
              when op.Comm_manager.bytes = payload && Option.is_none op_of_dst.(d) ->
                op_of_dst.(d) <- Some op;
                sends.(s) <- true;
                dsts.(k) <- d;
                scan (k + 1) rest
            | Fabric.P2p _ | Fabric.H2d _ | Fabric.D2h _ -> false)
      in
      if not (scan 0 gops) then None
      else begin
        let root = ref (-1) and roots = ref 0 in
        for g = 0 to n - 1 do
          if sends.(g) && Option.is_none op_of_dst.(g) then begin
            root := g;
            incr roots
          end
        done;
        if !roots = 1 then Some { root = !root; dsts; payload; op_of_dst } else None
      end

(* An allreduce group pairs a reduction's gathers (every member ships its
   partial to the root) with the broadcast of the combined result. It is
   reshapeable iff the gathers all target one root with equal payloads and
   the broadcast half is itself a well-formed broadcast from that root to
   exactly the gather sources — then reduce-scatter + all-gather moves the
   same 2(p-1) payload copies with every link loaded evenly. *)
type allreduce_shape = {
  bcast : group_shape;  (* root, members and payload of the result side *)
  gather_of_src : (int, Comm_manager.op) Hashtbl.t;
}

let analyze_allreduce n (gops : Comm_manager.op list) =
  let gathers, rest =
    List.partition (fun (op : Comm_manager.op) -> op.Comm_manager.kind = Comm_manager.Red_gather) gops
  in
  let bcasts, other =
    List.partition (fun (op : Comm_manager.op) -> op.Comm_manager.kind = Comm_manager.Red_bcast) rest
  in
  if gathers = [] || bcasts = [] || other <> [] then None
  else
    match analyze n bcasts with
    | None -> None
    | Some shape ->
        let gather_of_src = Hashtbl.create 8 in
        let ok = ref true in
        List.iter
          (fun (op : Comm_manager.op) ->
            match op.Comm_manager.dir with
            | Fabric.P2p (s, d)
              when d = shape.root && s <> shape.root
                   && op.Comm_manager.bytes = shape.payload
                   && not (Hashtbl.mem gather_of_src s) ->
                Hashtbl.replace gather_of_src s op
            | _ -> ok := false)
          gathers;
        let srcs =
          Hashtbl.fold (fun s _ acc -> s :: acc) gather_of_src [] |> List.sort compare
        in
        if !ok && srcs = List.sort compare (Array.to_list shape.dsts) then
          Some { bcast = shape; gather_of_src }
        else None

(* ------------------------------------------------------------------ *)
(* Cost model (selection only; timing comes from the simulation)       *)

(* Link costs per class of GPU pair: index 0 is same-node, 1 cross-node.
   A fabric has one link spec, and which resources a peer-to-peer route
   crosses, and their caps, depend only on whether its ends share a node,
   so every pair of a class has one setup latency and one standalone
   bandwidth (docs/MODEL.md, "Collectives"). A plan reads each class from
   the fabric once, at the first pair of that class it prices. *)
type costs = { fabric : Fabric.t; lat : float array; bw : float array }

let costs fabric = { fabric; lat = [| nan; nan |]; bw = [| nan; nan |] }

let link_class c a b =
  let k = if Fabric.same_node c.fabric a b then 0 else 1 in
  if Float.is_nan c.lat.(k) then begin
    let dir = Fabric.P2p (a, b) in
    c.lat.(k) <- Fabric.latency_of c.fabric dir;
    c.bw.(k) <- Fabric.standalone_bandwidth c.fabric dir
  end;
  k

let num_nodes fabric =
  match Fabric.topology fabric with
  | None -> 1
  | Some t -> (Fabric.num_gpus fabric + t.Fabric.gpus_per_node - 1) / t.Fabric.gpus_per_node

(* Node-grouped chain: root first, then the destinations of the root's
   node, then those of the following nodes in cyclic order, each node's
   in ascending GPU id — the chain crosses the wire once per node
   boundary. A node holds consecutive GPU ids, so that is every
   destination in ascending id from the first GPU of the root's node,
   wrapping around. *)
let ring_order fabric shape =
  let n = Array.length shape.op_of_dst in
  let start =
    match Fabric.topology fabric with
    | None -> 0
    | Some t -> Fabric.node_of fabric shape.root * t.Fabric.gpus_per_node
  in
  let order = Array.make (Array.length shape.dsts + 1) shape.root in
  let k = ref 1 in
  for i = 0 to n - 1 do
    let g = (start + i) mod n in
    if Option.is_some shape.op_of_dst.(g) then begin
      order.(!k) <- g;
      incr k
    end
  done;
  order

let segment_sizes payload s =
  let base = payload / s and extra = payload mod s in
  Array.init s (fun k -> base + if k < extra then 1 else 0)

(* Candidate segment counts: the count that cuts 256 KiB segments plus
   powers of two, never slicing below 4 KiB segments. *)
let segment_candidates payload =
  let floor_bytes = 4096 and seg_bytes = 256 * 1024 in
  let cap = max 1 (payload / floor_bytes) in
  let hi = min 16 cap in
  let target = min hi (max 1 ((payload + seg_bytes - 1) / seg_bytes)) in
  (* Clamped to [hi], the powers of two are the ones below it, then [hi];
     the target joins them in order, once. *)
  let[@tail_mod_cons] rec powers p = if p < hi then p :: powers (2 * p) else [ hi ] in
  let[@tail_mod_cons] rec insert = function
    | [] -> [ target ]
    | s :: rest as l -> if target < s then target :: l else if target = s then l else s :: insert rest
  in
  insert (powers 1)

(* The candidate with the least [time], the first one on a tie, starting
   from one segment. *)
let best_segments time payload =
  let rec go bs bt = function
    | [] -> (bs, bt)
    | s :: rest ->
        let t = time s in
        if t < bt then go s t rest else go bs bt rest
  in
  go 1 (time 1) (segment_candidates payload)

(* Pipelined chain estimate over the hops' latencies and standalone
   bandwidths: fill the pipe along every hop with one segment, then
   stream the remaining S-1 segments through the bottleneck hop. Each
   forwarded segment pays its hop latency (the schedule gates segment
   k+1 on segment k clearing the edge). *)
let ring_time lat bw payload s =
  let seg = float_of_int payload /. float_of_int s in
  let fill = ref 0.0 and slot = ref 0.0 in
  for h = 0 to Array.length lat - 1 do
    fill := !fill +. lat.(h) +. (seg /. bw.(h));
    slot := Float.max !slot (lat.(h) +. (seg /. bw.(h)))
  done;
  !fill +. (float_of_int (s - 1) *. !slot)

let best_ring c order payload =
  let hops = Array.length order - 1 in
  let lat = Array.make hops 0.0 and bw = Array.make hops 0.0 in
  for h = 0 to hops - 1 do
    let k = link_class c order.(h) order.(h + 1) in
    lat.(h) <- c.lat.(k);
    bw.(h) <- c.bw.(k)
  done;
  best_segments (ring_time lat bw payload) payload

(* NCCL-style ring-allreduce estimate: 2(p-1) rounds, each bounded by the
   slowest ring edge moving one payload/p chunk. The node-grouped order
   keeps the wire crossed once per node boundary per round. *)
let allreduce_ring_time fabric ring payload =
  let p = Array.length ring in
  if p < 2 then infinity
  else begin
    let seg = float_of_int payload /. float_of_int p in
    let slot = ref 0.0 in
    for i = 0 to p - 1 do
      let dir = Fabric.P2p (ring.(i), ring.((i + 1) mod p)) in
      let lat = Fabric.latency_of fabric dir in
      let bw = Fabric.standalone_bandwidth fabric dir in
      slot := Float.max !slot (lat +. (seg /. bw))
    done;
    float_of_int (2 * (p - 1)) *. !slot
  end

(* Star estimate: every copy leaves the root's egress link back to back;
   cross-node copies additionally serialize on the node's uplink. *)
let direct_time c shape =
  let b = float_of_int shape.payload in
  let lat_max = ref 0.0 and egress = ref 0.0 and remote = ref 0 in
  for i = 0 to Array.length shape.dsts - 1 do
    let k = link_class c shape.root shape.dsts.(i) in
    lat_max := Float.max !lat_max c.lat.(k);
    egress := Float.max !egress c.bw.(k);
    if k = 1 then incr remote
  done;
  let copies = float_of_int (Array.length shape.dsts) in
  let egress_time = if !egress > 0.0 then copies *. b /. !egress else infinity in
  let wire_time =
    match Fabric.topology c.fabric with
    | Some t when !remote > 0 -> float_of_int !remote *. b /. t.Fabric.internode_bandwidth
    | _ -> 0.0
  in
  !lat_max +. Float.max egress_time wire_time

(* Destinations bucketed per node, each bucket in op order: the root's
   node's bucket, then one (leader, members) per remote node in ascending
   node order, the leader being the smallest GPU id of the bucket. *)
type buckets = { locals : int array; remotes : (int * int array) array }

let node_buckets fabric shape =
  let nn = num_nodes fabric in
  let size = Array.make nn 0 in
  Array.iter
    (fun d ->
      let m = Fabric.node_of fabric d in
      size.(m) <- size.(m) + 1)
    shape.dsts;
  let bucket = Array.map (fun k -> Array.make k 0) size in
  let fill = Array.make nn 0 in
  Array.iter
    (fun d ->
      let m = Fabric.node_of fabric d in
      bucket.(m).(fill.(m)) <- d;
      fill.(m) <- fill.(m) + 1)
    shape.dsts;
  let root_node = Fabric.node_of fabric shape.root in
  let remotes = ref [] in
  for m = nn - 1 downto 0 do
    if m <> root_node && size.(m) > 0 then
      remotes := (Array.fold_left Int.min max_int bucket.(m), bucket.(m)) :: !remotes
  done;
  { locals = bucket.(root_node); remotes = Array.of_list !remotes }

(* Two-stage pipeline estimate: the wire stage pushes one copy per
   remote node through the uplink, the relay stage fans out on the widest
   node; segments stream the second behind the first. *)
let hier_time c bk shape =
  match Fabric.topology c.fabric with
  | None -> (1, infinity)
  | Some t ->
      if Array.length bk.remotes = 0 then (1, infinity)
      else
        let b = float_of_int shape.payload in
        let n_rem = float_of_int (Array.length bk.remotes) in
        let fanout =
          Array.fold_left
            (fun m (_, ds) -> Int.max m (Array.length ds - 1))
            (Array.length bk.locals) bk.remotes
        in
        let leader = fst bk.remotes.(0) in
        let local_bw, local_lat =
          (* the first local destination's pair, else the first leader's *)
          let k =
            link_class c shape.root (if Array.length bk.locals > 0 then bk.locals.(0) else leader)
          in
          (c.bw.(k), c.lat.(k))
        in
        (* full cross-node hop latency, matching what the fabric will
           actually charge (link latency + internode latency) *)
        let wire_lat = c.lat.(link_class c shape.root leader) in
        let time s =
          let seg = b /. float_of_int s in
          let wire_slot = wire_lat +. (n_rem *. seg /. t.Fabric.internode_bandwidth) in
          let relay_slot =
            if fanout = 0 then 0.0
            else local_lat +. (float_of_int fanout *. seg /. local_bw)
          in
          wire_slot +. relay_slot +. (float_of_int (s - 1) *. Float.max wire_slot relay_slot)
        in
        best_segments time shape.payload

(* ------------------------------------------------------------------ *)
(* Schedule construction                                               *)

type builder = {
  mutable rev_items : item list;
  mutable count : int;
  mutable st : stats;
}

let push b it =
  b.rev_items <- it :: b.rev_items;
  b.count <- b.count + 1;
  b.count - 1

let passthrough b (op : Comm_manager.op) =
  ignore
    (push b
       {
         dir = op.Comm_manager.dir;
         bytes = op.Comm_manager.bytes;
         tag = op.Comm_manager.tag;
         level = 0;
         dep = -1;
         dep2 = -1;
         op;
       })

(* [tag ^ suffix], built once per run of equal tags (a group's ops
   usually share one). *)
let suffixer suffix =
  let last = ref "" and built = ref suffix in
  fun tag ->
    if not (String.equal tag !last) then begin
      last := tag;
      built := tag ^ suffix
    end;
    !built

(* Keep a group's own schedule (star or binomial tree) but make its data
   dependencies explicit: a tree edge may not leave its source before the
   item that delivered the payload there has finished. [n] is the
   fabric's GPU count. *)
let direct_group b n (gops : Comm_manager.op list) =
  let delivered = Array.make n (-1) in
  List.iter
    (fun (op : Comm_manager.op) ->
      let dep = match op.Comm_manager.dir with Fabric.P2p (s, _) -> delivered.(s) | _ -> -1 in
      let i =
        push b
          {
            dir = op.Comm_manager.dir;
            bytes = op.Comm_manager.bytes;
            tag = op.Comm_manager.tag;
            level = op.Comm_manager.round;
            dep;
            dep2 = -1;
            op;
          }
      in
      match op.Comm_manager.dir with Fabric.P2p (_, d) -> delivered.(d) <- i | _ -> ())
    gops;
  b.st <- add_stats b.st { no_stats with direct_groups = 1 }

(* Wavefront-levelled segmented chain: segment k of hop h sits at level
   h+k, gated on the same segment's previous hop and on the previous
   segment clearing this edge. Both gates live exactly one level down,
   so every level is one independent fabric batch. *)
let ring_group b shape order s =
  let sizes = segment_sizes shape.payload s in
  let hops = Array.length order - 1 in
  let idx = Array.make_matrix s (hops + 1) (-1) in
  let ring_tag = suffixer ":ring" in
  for h = 1 to hops do
    let src = order.(h - 1) and dst = order.(h) in
    let op = op_to shape dst in
    let tag = ring_tag op.Comm_manager.tag in
    for k = 0 to s - 1 do
      let dep = if h >= 2 then idx.(k).(h - 1) else -1 in
      let dep2 = if k >= 1 then idx.(k - 1).(h) else -1 in
      idx.(k).(h) <-
        push b
          { dir = Fabric.P2p (src, dst); bytes = sizes.(k); tag; level = h - 1 + k; dep; dep2; op }
    done
  done;
  b.st <- add_stats b.st { no_stats with rings = 1; segments = s }

(* Two-hop tree: the root feeds its local peers and one leader per remote
   node (level k for segment k); leaders re-broadcast on their node
   (level k+1, gated on the wire segment's arrival). [base_level] shifts
   the whole tree down (an allreduce runs it behind its gather stage) and
   [gate] is a plan index every root-outgoing edge must wait for. *)
let hier_group ?(base_level = 0) ?(gate = -1) b bk shape s =
  let sizes = segment_sizes shape.payload s in
  (* previous segment's item on each edge, by destination *)
  let chain = Array.make (Array.length shape.op_of_dst) (-1) in
  let hier_tag = suffixer ":hier" in
  let edge ~seg ~level ~dep src dst =
    let op = op_to shape dst in
    let i =
      push b
        {
          dir = Fabric.P2p (src, dst);
          bytes = sizes.(seg);
          tag = hier_tag op.Comm_manager.tag;
          level;
          dep;
          dep2 = chain.(dst);
          op;
        }
    in
    chain.(dst) <- i;
    i
  in
  for k = 0 to s - 1 do
    Array.iter
      (fun d -> ignore (edge ~seg:k ~level:(base_level + k) ~dep:gate shape.root d))
      bk.locals;
    Array.iter
      (fun (leader, members) ->
        let wire = edge ~seg:k ~level:(base_level + k) ~dep:gate shape.root leader in
        Array.iter
          (fun d ->
            if d <> leader then
              ignore (edge ~seg:k ~level:(base_level + k + 1) ~dep:wire leader d))
          members)
      bk.remotes
  done;
  b.st <- add_stats b.st { no_stats with hierarchies = 1; segments = s }

(* Ring allreduce: reduce-scatter then all-gather. The payload splits
   into one chunk per participant; in reduce-scatter round r every GPU
   forwards the chunk it just accumulated to its ring successor, so after
   p-1 rounds chunk (i+1) mod p is fully reduced at participant i, and
   the p-1 all-gather rounds circulate the finished chunks the same way.
   2(p-1) rounds, each moving payload/p bytes per link — the
   bandwidth-optimal schedule star and tree allreduces can't match.
   Reduce-scatter hops are attributed to the sender's gather op (the hop
   carries its partial sums), all-gather hops to the receiver's broadcast
   op (the hop delivers its share of the result), so arrival bookkeeping
   downstream needs no new cases. *)
let allreduce_ring_group b ar ring =
  let p = Array.length ring in
  let sizes = segment_sizes ar.bcast.payload p in
  let some_gather =
    match Hashtbl.fold (fun _ op acc -> op :: acc) ar.gather_of_src [] with
    | op :: _ -> op
    | [] -> assert false
  in
  let some_bcast = op_to ar.bcast ar.bcast.dsts.(0) in
  let op_rs src =
    try Hashtbl.find ar.gather_of_src src with Not_found -> some_gather
  in
  let op_ag dst = match ar.bcast.op_of_dst.(dst) with Some op -> op | None -> some_bcast in
  let idx = Array.make_matrix (2 * (p - 1)) p (-1) in
  for r = 0 to (2 * (p - 1)) - 1 do
    let rs = r < p - 1 in
    for i = 0 to p - 1 do
      let src = ring.(i) and dst = ring.((i + 1) mod p) in
      (* chunk rotation: position i sends chunk i-r during reduce-scatter
         and chunk i+1-(r-(p-1)) during all-gather *)
      let c =
        let base = if rs then i - r else i + 1 - (r - (p - 1)) in
        ((base mod p) + p) mod p
      in
      let dep = if r >= 1 then idx.(r - 1).((i - 1 + p) mod p) else -1 in
      let op = if rs then op_rs src else op_ag dst in
      let suffix = if rs then ":rs" else ":ag" in
      idx.(r).(i) <-
        push b
          {
            dir = Fabric.P2p (src, dst);
            bytes = sizes.(c);
            tag = op.Comm_manager.tag ^ suffix;
            level = r;
            dep;
            dep2 = -1;
            op;
          }
    done
  done;
  b.st <- add_stats b.st { no_stats with allreduces = 1; segments = p }

(* Star gathers at level 0 feeding a hierarchical result broadcast: the
   wire is still crossed once per remote member on the way in, but only
   once per node on the way out.

   [gather_of_src] stays a Hashtbl, walked in its own order, because the
   order is load-bearing. Every root-outgoing broadcast edge is gated on
   [gate], the gather item pushed last, which is the last one
   [Hashtbl.iter] visits — not the combine. Under the barrier gate that
   one gather is the broadcast's only gate, so another table or order
   would move simulated numbers; under the overlap gate [op_ready]'s
   combine slot covers it. docs/OVERLAP.md lists it with the barrier
   gate's quirks. *)
let allreduce_hier_group b bk ar s =
  let gate = ref (-1) in
  Hashtbl.iter
    (fun _ (op : Comm_manager.op) ->
      gate :=
        push b
          {
            dir = op.Comm_manager.dir;
            bytes = op.Comm_manager.bytes;
            tag = op.Comm_manager.tag;
            level = 0;
            dep = -1;
            dep2 = -1;
            op;
          })
    ar.gather_of_src;
  hier_group ~base_level:1 ~gate:!gate b bk ar.bcast s;
  b.st <- add_stats b.st { no_stats with allreduces = 1 }

(* ------------------------------------------------------------------ *)

let plan_allreduce b cfg c (gops : Comm_manager.op list) =
  let n = Fabric.num_gpus c.fabric in
  match analyze_allreduce n gops with
  | None -> direct_group b n gops
  | Some ar when Array.length ar.bcast.dsts < 2 -> direct_group b n gops
  | Some ar -> (
      let order = ring_order c.fabric ar.bcast in
      match cfg.Rt_config.collective with
      | Rt_config.Direct -> direct_group b n gops
      | Rt_config.Ring -> allreduce_ring_group b ar order
      | Rt_config.Auto ->
          let t_ring = allreduce_ring_time c.fabric order ar.bcast.payload in
          (* the gather stage of star and hier is the same ingress star as
             [direct_time]'s egress star, by link symmetry *)
          let t_star = 2.0 *. direct_time c ar.bcast in
          let bk = node_buckets c.fabric ar.bcast in
          let s_hier, t_hier_bcast = hier_time c bk ar.bcast in
          let t_hier = direct_time c ar.bcast +. t_hier_bcast in
          if t_ring < t_star && t_ring <= t_hier then allreduce_ring_group b ar order
          else if t_hier < t_star then allreduce_hier_group b bk ar s_hier
          else direct_group b n gops)

let plan_group b cfg c (gops : Comm_manager.op list) =
  let n = Fabric.num_gpus c.fabric in
  if
    List.exists
      (fun (op : Comm_manager.op) -> op.Comm_manager.kind = Comm_manager.Red_gather)
      gops
  then plan_allreduce b cfg c gops
  else
    match analyze n gops with
    | None -> direct_group b n gops
    | Some shape when Array.length shape.dsts < 2 -> direct_group b n gops
    | Some shape -> (
        match cfg.Rt_config.collective with
        | Rt_config.Direct -> direct_group b n gops
        | Rt_config.Ring ->
            let order = ring_order c.fabric shape in
            ring_group b shape order (fst (best_ring c order shape.payload))
        | Rt_config.Auto ->
            let order = ring_order c.fabric shape in
            let s_ring, t_ring = best_ring c order shape.payload in
            let t_direct = direct_time c shape in
            let bk = node_buckets c.fabric shape in
            let s_hier, t_hier = hier_time c bk shape in
            if t_hier <= t_ring && t_hier < t_direct then hier_group b bk shape s_hier
            else if t_ring < t_direct then ring_group b shape order s_ring
            else direct_group b n gops)

(* A position in the plan: an ungrouped op, or the group first seen
   there (its ops in reverse order). *)
type slot = Pass of Comm_manager.op | Group of Comm_manager.op list ref

let plan ~cfg ~fabric (ops : Comm_manager.op list) =
  let n = Fabric.num_gpus fabric in
  let check g =
    if g < 0 || g >= n then
      invalid_arg (Printf.sprintf "Collective.plan: device %d out of range" g)
  in
  let groups = Hashtbl.create 8 in
  let slots =
    List.fold_left
      (fun slots (op : Comm_manager.op) ->
        let g = op.Comm_manager.group in
        if g < 0 then Pass op :: slots
        else begin
          (match op.Comm_manager.dir with
          | Fabric.P2p (s, d) ->
              check s;
              check d
          | Fabric.H2d _ | Fabric.D2h _ -> ());
          match Hashtbl.find_opt groups g with
          | Some rev_ops ->
              rev_ops := op :: !rev_ops;
              slots
          | None ->
              let rev_ops = ref [ op ] in
              Hashtbl.add groups g rev_ops;
              Group rev_ops :: slots
        end)
      [] ops
  in
  let b = { rev_items = []; count = 0; st = no_stats } in
  let c = costs fabric in
  List.iter
    (function
      | Pass op -> passthrough b op
      | Group rev_ops -> plan_group b cfg c (List.rev !rev_ops))
    (List.rev slots);
  (Array.of_list (List.rev b.rev_items), b.st)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

let execute ~plan ~base ~run ~on_complete () =
  let n = Array.length plan in
  let finish = Array.make n neg_infinity in
  let span = Array.make n None in
  let max_level = Array.fold_left (fun m it -> max m it.level) (-1) plan in
  let gate d acc = if d >= 0 then match span.(d) with Some s -> s :: acc | None -> acc else acc in
  for level = 0 to max_level do
    let idxs = ref [] in
    for i = n - 1 downto 0 do
      if plan.(i).level = level then idxs := i :: !idxs
    done;
    match !idxs with
    | [] -> ()
    | idxs ->
        let reqs =
          List.map
            (fun i ->
              let it = plan.(i) in
              let ready, causes = base it in
              let ready = if it.dep >= 0 then Float.max ready finish.(it.dep) else ready in
              let ready = if it.dep2 >= 0 then Float.max ready finish.(it.dep2) else ready in
              let causes = causes |> gate it.dep |> gate it.dep2 in
              ({ Fabric.direction = it.dir; bytes = it.bytes; ready; tag = it.tag }, causes))
            idxs
        in
        let comps = run reqs in
        List.iter2
          (fun i ((c : Fabric.completion), sid) ->
            finish.(i) <- c.Fabric.finish;
            span.(i) <- sid;
            on_complete plan.(i) c sid)
          idxs comps
  done;
  Array.fold_left Float.max neg_infinity finish
