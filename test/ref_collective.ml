(* Test oracle for the collective planner: [Collective.plan] as it was
   before the broadcast path moved to GPU-indexed arrays and per-class
   link costs. Group analysis keys its destinations in a Hashtbl, the
   ring order sorts (node offset, GPU) pairs, and every cost estimate
   asks the fabric about each (source, destination) pair it touches.
   Below the type aliases the code is the old planner unchanged.
   "planner == reference planner" (test/test_collective.ml) compares
   [plan] here with [Collective.plan], item by item and stat by stat. *)

open Mgacc_runtime
module Fabric = Mgacc_gpusim.Fabric

type item = Collective.item = {
  dir : Fabric.direction;
  bytes : int;
  tag : string;
  level : int;
  dep : int;
  dep2 : int;
  op : Comm_manager.op;
}

type stats = Collective.stats = {
  rings : int;
  hierarchies : int;
  direct_groups : int;
  segments : int;
  allreduces : int;
}

let no_stats = Collective.no_stats
let add_stats = Collective.add_stats


(* ------------------------------------------------------------------ *)
(* Group analysis                                                      *)

type group_shape = {
  root : int;
  dsts : int list;  (* distinct, in op order *)
  payload : int;  (* bytes, identical across the group's ops *)
  op_of_dst : (int, Comm_manager.op) Hashtbl.t;
}

let endpoints (op : Comm_manager.op) =
  match op.Comm_manager.dir with
  | Fabric.P2p (s, d) -> Some (s, d)
  | Fabric.H2d _ | Fabric.D2h _ -> None

(* A group is reshapeable iff it is a well-formed broadcast: every op is
   peer-to-peer with the same byte count, destinations are distinct, and
   exactly one endpoint (the root) sends without ever receiving. Tree
   schedules qualify — sources vary but all carry the same payload. *)
let analyze (gops : Comm_manager.op list) =
  match gops with
  | [] -> None
  | first :: _ -> (
      match endpoints first with
      | None -> None
      | Some _ ->
          let payload = first.Comm_manager.bytes in
          let op_of_dst = Hashtbl.create 8 in
          let dsts = ref [] and srcs = ref [] in
          let ok = ref true in
          List.iter
            (fun (op : Comm_manager.op) ->
              match endpoints op with
              | None -> ok := false
              | Some (s, d) ->
                  if op.Comm_manager.bytes <> payload then ok := false;
                  if Hashtbl.mem op_of_dst d then ok := false
                  else begin
                    Hashtbl.replace op_of_dst d op;
                    dsts := d :: !dsts;
                    srcs := s :: !srcs
                  end)
            gops;
          let dsts = List.rev !dsts in
          let roots =
            List.sort_uniq compare !srcs
            |> List.filter (fun s -> not (Hashtbl.mem op_of_dst s))
          in
          if (not !ok) || payload <= 0 then None
          else
            match roots with
            | [ root ] -> Some { root; dsts; payload; op_of_dst }
            | _ -> None)

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

let analyze_allreduce (gops : Comm_manager.op list) =
  let gathers, rest =
    List.partition (fun (op : Comm_manager.op) -> op.Comm_manager.kind = Comm_manager.Red_gather) gops
  in
  let bcasts, other =
    List.partition (fun (op : Comm_manager.op) -> op.Comm_manager.kind = Comm_manager.Red_bcast) rest
  in
  if gathers = [] || bcasts = [] || other <> [] then None
  else
    match analyze bcasts with
    | None -> None
    | Some shape ->
        let gather_of_src = Hashtbl.create 8 in
        let ok = ref true in
        List.iter
          (fun (op : Comm_manager.op) ->
            match endpoints op with
            | Some (s, d)
              when d = shape.root && s <> shape.root
                   && op.Comm_manager.bytes = shape.payload
                   && not (Hashtbl.mem gather_of_src s) ->
                Hashtbl.replace gather_of_src s op
            | _ -> ok := false)
          gathers;
        let srcs =
          Hashtbl.fold (fun s _ acc -> s :: acc) gather_of_src [] |> List.sort compare
        in
        if !ok && srcs = List.sort compare shape.dsts then
          Some { bcast = shape; gather_of_src }
        else None

(* ------------------------------------------------------------------ *)
(* Cost model (selection only; timing comes from the simulation)       *)

let num_nodes fabric =
  match Fabric.topology fabric with
  | None -> 1
  | Some t -> (Fabric.num_gpus fabric + t.Fabric.gpus_per_node - 1) / t.Fabric.gpus_per_node

(* Node-grouped chain: root first, then destinations sorted so GPUs
   sharing the root's node come before other nodes in cyclic order —
   the chain crosses the wire once per node boundary. *)
let ring_order fabric shape =
  let nn = num_nodes fabric in
  let root_node = Fabric.node_of fabric shape.root in
  let key d = (((Fabric.node_of fabric d - root_node) + nn) mod nn, d) in
  shape.root :: List.sort (fun a b -> compare (key a) (key b)) shape.dsts

let segment_sizes payload s =
  let base = payload / s and extra = payload mod s in
  Array.init s (fun k -> base + if k < extra then 1 else 0)

(* Candidate segment counts: the count that cuts 256 KiB segments plus
   powers of two, never slicing below 4 KiB segments. *)
let segment_candidates payload =
  let floor_bytes = 4096 and seg_bytes = 256 * 1024 in
  let cap = max 1 (payload / floor_bytes) in
  let target = (payload + seg_bytes - 1) / seg_bytes in
  [ 1; 2; 4; 8; 16; target ]
  |> List.map (fun s -> min 16 (min cap (max 1 s)))
  |> List.sort_uniq compare

(* Pipelined chain estimate: fill the pipe along every hop with one
   segment, then stream the remaining S-1 segments through the
   bottleneck hop. Each forwarded segment pays its hop latency (the
   schedule gates segment k+1 on segment k clearing the edge). *)
let ring_time fabric order payload s =
  let seg = float_of_int payload /. float_of_int s in
  let fill = ref 0.0 and slot = ref 0.0 in
  let rec hops = function
    | a :: (b :: _ as rest) ->
        let dir = Fabric.P2p (a, b) in
        let lat = Fabric.latency_of fabric dir in
        let bw = Fabric.standalone_bandwidth fabric dir in
        fill := !fill +. lat +. (seg /. bw);
        slot := Float.max !slot (lat +. (seg /. bw));
        hops rest
    | _ -> ()
  in
  hops order;
  !fill +. (float_of_int (s - 1) *. !slot)

let best_ring fabric order payload =
  List.fold_left
    (fun (bs, bt) s ->
      let t = ring_time fabric order payload s in
      if t < bt then (s, t) else (bs, bt))
    (1, ring_time fabric order payload 1)
    (segment_candidates payload)

(* NCCL-style ring-allreduce estimate: 2(p-1) rounds, each bounded by the
   slowest ring edge moving one payload/p chunk. The node-grouped order
   keeps the wire crossed once per node boundary per round. *)
let allreduce_ring_time fabric order payload =
  let ring = Array.of_list order in
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
let direct_time fabric shape =
  let b = float_of_int shape.payload in
  let lat_max = ref 0.0 and egress = ref 0.0 and remote = ref 0 in
  List.iter
    (fun d ->
      let dir = Fabric.P2p (shape.root, d) in
      lat_max := Float.max !lat_max (Fabric.latency_of fabric dir);
      egress := Float.max !egress (Fabric.standalone_bandwidth fabric dir);
      if not (Fabric.same_node fabric shape.root d) then incr remote)
    shape.dsts;
  let copies = float_of_int (List.length shape.dsts) in
  let egress_time = if !egress > 0.0 then copies *. b /. !egress else infinity in
  let wire_time =
    match Fabric.topology fabric with
    | Some t when !remote > 0 -> float_of_int !remote *. b /. t.Fabric.internode_bandwidth
    | _ -> 0.0
  in
  !lat_max +. Float.max egress_time wire_time

(* Destinations bucketed per node; the root's node first, leaders are the
   smallest GPU id of each remote bucket. *)
let node_buckets fabric shape =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun d ->
      let n = Fabric.node_of fabric d in
      Hashtbl.replace tbl n (d :: (try Hashtbl.find tbl n with Not_found -> [])))
    shape.dsts;
  let root_node = Fabric.node_of fabric shape.root in
  let locals = try List.rev (Hashtbl.find tbl root_node) with Not_found -> [] in
  let remotes =
    Hashtbl.fold (fun n ds acc -> if n = root_node then acc else (n, List.rev ds) :: acc) tbl []
    |> List.sort compare
    |> List.map (fun (n, ds) -> (n, List.fold_left min (List.hd ds) ds, ds))
  in
  (locals, remotes)

(* Two-stage pipeline estimate: the wire stage pushes one copy per
   remote node through the uplink, the relay stage fans out on the widest
   node; segments stream the second behind the first. *)
let hier_time fabric shape =
  match Fabric.topology fabric with
  | None -> (1, infinity)
  | Some t ->
      let locals, remotes = node_buckets fabric shape in
      if remotes = [] then (1, infinity)
      else
        let b = float_of_int shape.payload in
        let n_rem = float_of_int (List.length remotes) in
        let fanout =
          List.fold_left
            (fun m (_, _, ds) -> max m (List.length ds - 1))
            (List.length locals) remotes
        in
        let local_bw, local_lat =
          let sample =
            match locals @ List.map (fun (_, l, _) -> l) remotes with
            | d :: _ -> Fabric.P2p (shape.root, d)
            | [] -> Fabric.P2p (shape.root, shape.root)
          in
          (Fabric.standalone_bandwidth fabric sample, Fabric.latency_of fabric sample)
        in
        let wire_lat =
          (* full cross-node hop latency, matching what the fabric will
             actually charge (link latency + internode latency) *)
          match remotes with
          | (_, leader, _) :: _ -> Fabric.latency_of fabric (Fabric.P2p (shape.root, leader))
          | [] -> t.Fabric.internode_latency
        in
        let time s =
          let seg = b /. float_of_int s in
          let wire_slot = wire_lat +. (n_rem *. seg /. t.Fabric.internode_bandwidth) in
          let relay_slot =
            if fanout = 0 then 0.0
            else local_lat +. (float_of_int fanout *. seg /. local_bw)
          in
          wire_slot +. relay_slot +. (float_of_int (s - 1) *. Float.max wire_slot relay_slot)
        in
        List.fold_left
          (fun (bs, bt) s ->
            let ts = time s in
            if ts < bt then (s, ts) else (bs, bt))
          (1, time 1)
          (segment_candidates shape.payload)

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

(* Keep a group's own schedule (star or binomial tree) but make its data
   dependencies explicit: a tree edge may not leave its source before the
   item that delivered the payload there has finished. *)
let direct_group b (gops : Comm_manager.op list) =
  let delivered = Hashtbl.create 8 in
  List.iter
    (fun (op : Comm_manager.op) ->
      let dep =
        match endpoints op with
        | Some (s, _) -> ( try Hashtbl.find delivered s with Not_found -> -1)
        | None -> -1
      in
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
      match endpoints op with
      | Some (_, d) -> Hashtbl.replace delivered d i
      | None -> ())
    gops;
  b.st <- add_stats b.st { no_stats with direct_groups = 1 }

(* Wavefront-levelled segmented chain: segment k of hop h sits at level
   h+k, gated on the same segment's previous hop and on the previous
   segment clearing this edge. Both gates live exactly one level down,
   so every level is one independent fabric batch. *)
let ring_group b shape order s =
  let sizes = segment_sizes shape.payload s in
  let hops = List.length order - 1 in
  let idx = Array.make_matrix s (hops + 1) (-1) in
  let rec emit h = function
    | src :: (dst :: _ as rest) ->
        let op = Hashtbl.find shape.op_of_dst dst in
        for k = 0 to s - 1 do
          let dep = if h >= 2 then idx.(k).(h - 1) else -1 in
          let dep2 = if k >= 1 then idx.(k - 1).(h) else -1 in
          idx.(k).(h) <-
            push b
              {
                dir = Fabric.P2p (src, dst);
                bytes = sizes.(k);
                tag = op.Comm_manager.tag ^ ":ring";
                level = h - 1 + k;
                dep;
                dep2;
                op;
              }
        done;
        emit (h + 1) rest
    | _ -> ()
  in
  emit 1 order;
  b.st <- add_stats b.st { no_stats with rings = 1; segments = s }

(* Two-hop tree: the root feeds its local peers and one leader per remote
   node (level k for segment k); leaders re-broadcast on their node
   (level k+1, gated on the wire segment's arrival). [base_level] shifts
   the whole tree down (an allreduce runs it behind its gather stage) and
   [gate] is a plan index every root-outgoing edge must wait for. *)
let hier_group ?(base_level = 0) ?(gate = -1) b fabric shape s =
  let sizes = segment_sizes shape.payload s in
  let locals, remotes = node_buckets fabric shape in
  let chain = Hashtbl.create 8 in
  (* previous segment's item on each edge, keyed by destination *)
  let edge ~seg ~level ~dep src dst =
    let op = Hashtbl.find shape.op_of_dst dst in
    let dep2 = try Hashtbl.find chain dst with Not_found -> -1 in
    let i =
      push b
        {
          dir = Fabric.P2p (src, dst);
          bytes = sizes.(seg);
          tag = op.Comm_manager.tag ^ ":hier";
          level;
          dep;
          dep2;
          op;
        }
    in
    Hashtbl.replace chain dst i;
    i
  in
  for k = 0 to s - 1 do
    List.iter
      (fun d -> ignore (edge ~seg:k ~level:(base_level + k) ~dep:gate shape.root d))
      locals;
    List.iter
      (fun (_, leader, members) ->
        let wire = edge ~seg:k ~level:(base_level + k) ~dep:gate shape.root leader in
        List.iter
          (fun d ->
            if d <> leader then
              ignore (edge ~seg:k ~level:(base_level + k + 1) ~dep:wire leader d))
          members)
      remotes
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
let allreduce_ring_group b ar order =
  let ring = Array.of_list order in
  let p = Array.length ring in
  let sizes = segment_sizes ar.bcast.payload p in
  let some_gather =
    match Hashtbl.fold (fun _ op acc -> op :: acc) ar.gather_of_src [] with
    | op :: _ -> op
    | [] -> assert false
  in
  let some_bcast = Hashtbl.find ar.bcast.op_of_dst (List.hd ar.bcast.dsts) in
  let op_rs src =
    try Hashtbl.find ar.gather_of_src src with Not_found -> some_gather
  in
  let op_ag dst = try Hashtbl.find ar.bcast.op_of_dst dst with Not_found -> some_bcast in
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
   once per node on the way out. *)
let allreduce_hier_group b fabric ar s =
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
  hier_group ~base_level:1 ~gate:!gate b fabric ar.bcast s;
  b.st <- add_stats b.st { no_stats with allreduces = 1 }

(* ------------------------------------------------------------------ *)

let plan_allreduce b cfg fabric (gops : Comm_manager.op list) =
  match analyze_allreduce gops with
  | None -> direct_group b gops
  | Some ar when List.length ar.bcast.dsts < 2 -> direct_group b gops
  | Some ar -> (
      let order = ring_order fabric ar.bcast in
      match cfg.Rt_config.collective with
      | Rt_config.Direct -> direct_group b gops
      | Rt_config.Ring -> allreduce_ring_group b ar order
      | Rt_config.Auto ->
          let t_ring = allreduce_ring_time fabric order ar.bcast.payload in
          (* the gather stage of star and hier is the same ingress star as
             [direct_time]'s egress star, by link symmetry *)
          let t_star = 2.0 *. direct_time fabric ar.bcast in
          let s_hier, t_hier_bcast = hier_time fabric ar.bcast in
          let t_hier = direct_time fabric ar.bcast +. t_hier_bcast in
          if t_ring < t_star && t_ring <= t_hier then allreduce_ring_group b ar order
          else if t_hier < t_star then allreduce_hier_group b fabric ar s_hier
          else direct_group b gops)

let plan_group b cfg fabric (gops : Comm_manager.op list) =
  if
    List.exists
      (fun (op : Comm_manager.op) -> op.Comm_manager.kind = Comm_manager.Red_gather)
      gops
  then plan_allreduce b cfg fabric gops
  else
    match analyze gops with
    | None -> direct_group b gops
    | Some shape when List.length shape.dsts < 2 -> direct_group b gops
    | Some shape -> (
        let order = ring_order fabric shape in
        let s_ring, t_ring = best_ring fabric order shape.payload in
        match cfg.Rt_config.collective with
        | Rt_config.Direct -> direct_group b gops
        | Rt_config.Ring -> ring_group b shape order s_ring
        | Rt_config.Auto ->
            let t_direct = direct_time fabric shape in
            let s_hier, t_hier = hier_time fabric shape in
            if t_hier <= t_ring && t_hier < t_direct then hier_group b fabric shape s_hier
            else if t_ring < t_direct then ring_group b shape order s_ring
            else direct_group b gops)

let plan ~cfg ~fabric (ops : Comm_manager.op list) =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (op : Comm_manager.op) ->
      let g = op.Comm_manager.group in
      if g >= 0 then
        Hashtbl.replace groups g (op :: (try Hashtbl.find groups g with Not_found -> [])))
    ops;
  let b = { rev_items = []; count = 0; st = no_stats } in
  let emitted = Hashtbl.create 8 in
  List.iter
    (fun (op : Comm_manager.op) ->
      let g = op.Comm_manager.group in
      if g < 0 then passthrough b op
      else if not (Hashtbl.mem emitted g) then begin
        Hashtbl.replace emitted g ();
        plan_group b cfg fabric (List.rev (Hashtbl.find groups g))
      end)
    ops;
  (Array.of_list (List.rev b.rev_items), b.st)
