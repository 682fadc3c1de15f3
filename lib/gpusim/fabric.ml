module Bag = Mgacc_sim.Bag

type topology = {
  gpus_per_node : int;
  internode_bandwidth : float;
  internode_latency : float;
}

type flavor =
  | Wire
  | Fat_tree of { oversub : float }
  | Multi_rail of { rails : int }
  | Nvlink_mesh of { nv_bandwidth : float; nv_latency : float }

type resource =
  | Down of int
  | Up of int
  | Host_aggregate of int
  | Net_up of int
  | Net_down of int
  | Spine
  | Rail_up of int  (* node * rails + rail *)
  | Rail_down of int
  | Nv_out of int
  | Nv_in of int

type direction = H2d of int | D2h of int | P2p of int * int

type request = { direction : direction; bytes : int; ready : float; tag : string }

type completion = { req : request; start : float; finish : float }

(* What the fabric knows about one transfer direction: the resources it
   crosses (listed for the reference allocator, interned for the
   incremental one), its own cap, its setup latency, its standalone
   rate and the name its spans carry in the trace. Transfers and the
   collective cost model ask about the same GPU pairs over and over, so
   each is computed once, on first use; the name only once a span needs
   it, since the cost model asks about pairs that never transfer. *)
type route = {
  res : resource list;
  rids : int array;
  own : float;
  latency : float;
  alone : float;
  name : string Lazy.t;
}

type t = {
  link : Spec.link;
  num_gpus : int;
  topology : topology option;
  flavor : flavor;
  rails : int;  (* Multi_rail rail count, 0 otherwise *)
  nodes : int;
  (* Resources interned to dense ids so the event loop can keep
     per-resource capacity/count state in flat arrays instead of
     rebuilding hashtables on every event:
       [0, G)            Down g
       [G, 2G)           Up g
       [2G, 2G+M)        Host_aggregate n
       [2G+M, 2G+2M)     Net_up n
       [2G+2M, 2G+3M)    Net_down n
     Non-Wire flavors append their extra resources after that block
     (so a Wire fabric's rid space and caps stay byte-identical to
     the pre-flavor layout):
       base = 2G+3M
       base                       Spine
       [base+1, base+1+MR)        Rail_up (n*rails + r)
       [base+1+MR, base+1+2MR)    Rail_down (n*rails + r)
       [.., +G)                   Nv_out g
       [.., +G)                   Nv_in g *)
  caps : float array;
  mutable routes : route option array;
      (* indexed by [route_index]; empty until the first lookup, so
         [create] stays as cheap as it was *)
}

let node_of t g =
  match t.topology with None -> 0 | Some topo -> g / topo.gpus_per_node

let capacity t = function
  | Down _ -> t.link.Spec.h2d_bandwidth
  | Up _ -> t.link.Spec.d2h_bandwidth
  | Host_aggregate _ -> t.link.Spec.host_aggregate_bandwidth
  | Net_up _ | Net_down _ -> (
      match t.topology with
      | Some topo -> topo.internode_bandwidth
      | None -> infinity)
  | Spine -> (
      (* The fat-tree core: all cross-node flows share the bisection,
         which an oversubscribed tree provides at nodes/oversub times
         the per-node injection rate. *)
      match (t.flavor, t.topology) with
      | Fat_tree { oversub }, Some topo ->
          topo.internode_bandwidth *. float_of_int t.nodes /. oversub
      | _ -> infinity)
  | Rail_up _ | Rail_down _ -> (
      match t.topology with Some topo -> topo.internode_bandwidth | None -> infinity)
  | Nv_out _ | Nv_in _ -> (
      match t.flavor with Nvlink_mesh { nv_bandwidth; _ } -> nv_bandwidth | _ -> infinity)

let rid_of t = function
  | Down g -> g
  | Up g -> t.num_gpus + g
  | Host_aggregate n -> (2 * t.num_gpus) + n
  | Net_up n -> (2 * t.num_gpus) + t.nodes + n
  | Net_down n -> (2 * t.num_gpus) + (2 * t.nodes) + n
  | Spine -> (2 * t.num_gpus) + (3 * t.nodes)
  | Rail_up k -> (2 * t.num_gpus) + (3 * t.nodes) + 1 + k
  | Rail_down k -> (2 * t.num_gpus) + (3 * t.nodes) + 1 + (t.nodes * t.rails) + k
  | Nv_out g -> (2 * t.num_gpus) + (3 * t.nodes) + 1 + (2 * t.nodes * t.rails) + g
  | Nv_in g ->
      (2 * t.num_gpus) + (3 * t.nodes) + 1 + (2 * t.nodes * t.rails) + t.num_gpus + g

let create ?(flavor = Wire) ?topology link ~num_gpus =
  if num_gpus <= 0 then invalid_arg "Fabric.create: num_gpus <= 0";
  (match topology with
  | Some t when t.gpus_per_node <= 0 || t.internode_bandwidth <= 0.0 ->
      invalid_arg "Fabric.create: bad topology"
  | _ -> ());
  (match flavor with
  | Fat_tree { oversub } when not (oversub >= 1.0) ->
      invalid_arg "Fabric.create: fat-tree oversubscription < 1"
  | Multi_rail { rails } when rails < 1 -> invalid_arg "Fabric.create: rails < 1"
  | Nvlink_mesh { nv_bandwidth; nv_latency } when nv_bandwidth <= 0.0 || nv_latency < 0.0 ->
      invalid_arg "Fabric.create: bad NVLink mesh parameters"
  | _ -> ());
  let nodes =
    match topology with
    | None -> 1
    | Some topo -> (num_gpus + topo.gpus_per_node - 1) / topo.gpus_per_node
  in
  let rails = match flavor with Multi_rail { rails } -> rails | _ -> 0 in
  let extra =
    (* Wire allocates nothing extra, keeping its caps array (and thus the
       incremental allocator's scratch) byte-identical to the old layout. *)
    match flavor with
    | Wire -> 0
    | Fat_tree _ -> 1
    | Multi_rail _ -> 1 + (2 * nodes * rails)
    | Nvlink_mesh _ -> 1 + (2 * num_gpus)
  in
  let t =
    {
      link;
      num_gpus;
      topology;
      flavor;
      rails;
      nodes;
      caps = Array.make ((2 * num_gpus) + (3 * nodes) + extra) 0.0;
      routes = [||];
    }
  in
  for g = 0 to num_gpus - 1 do
    t.caps.(rid_of t (Down g)) <- capacity t (Down g);
    t.caps.(rid_of t (Up g)) <- capacity t (Up g)
  done;
  for n = 0 to nodes - 1 do
    t.caps.(rid_of t (Host_aggregate n)) <- capacity t (Host_aggregate n);
    t.caps.(rid_of t (Net_up n)) <- capacity t (Net_up n);
    t.caps.(rid_of t (Net_down n)) <- capacity t (Net_down n)
  done;
  (match flavor with
  | Wire -> ()
  | Fat_tree _ -> t.caps.(rid_of t Spine) <- capacity t Spine
  | Multi_rail _ ->
      t.caps.(rid_of t Spine) <- capacity t Spine;
      for k = 0 to (nodes * rails) - 1 do
        t.caps.(rid_of t (Rail_up k)) <- capacity t (Rail_up k);
        t.caps.(rid_of t (Rail_down k)) <- capacity t (Rail_down k)
      done
  | Nvlink_mesh _ ->
      t.caps.(rid_of t Spine) <- capacity t Spine;
      for g = 0 to num_gpus - 1 do
        t.caps.(rid_of t (Nv_out g)) <- capacity t (Nv_out g);
        t.caps.(rid_of t (Nv_in g)) <- capacity t (Nv_in g)
      done);
  t

let check_dev t i =
  if i < 0 || i >= t.num_gpus then invalid_arg (Printf.sprintf "Fabric: device %d out of range" i)

let resources_of t = function
  | H2d i ->
      check_dev t i;
      [ Down i; Host_aggregate (node_of t i) ]
  | D2h i ->
      check_dev t i;
      [ Up i; Host_aggregate (node_of t i) ]
  | P2p (i, j) ->
      check_dev t i;
      check_dev t j;
      if i = j then invalid_arg "Fabric: P2p with src = dst";
      let ni = node_of t i and nj = node_of t j in
      if ni = nj then
        match t.flavor with
        | Nvlink_mesh _ ->
            (* Direct GPU-GPU port pair; the PCIe links and the host root
               complex stay free for H2D/D2H traffic. *)
            [ Nv_out i; Nv_in j ]
        | Wire | Fat_tree _ | Multi_rail _ -> [ Up i; Down j; Host_aggregate ni ]
      else begin
        (* Cross-node peer traffic stages through both hosts and the
           network: D2H on the source node, the wire, H2D on the
           destination node. *)
        match t.flavor with
        | Fat_tree _ ->
            [
              Up i; Net_up ni; Spine; Net_down nj; Down j; Host_aggregate ni; Host_aggregate nj;
            ]
        | Multi_rail { rails } ->
            let r = (ni + nj) mod rails in
            [
              Up i;
              Rail_up ((ni * rails) + r);
              Rail_down ((nj * rails) + r);
              Down j;
              Host_aggregate ni;
              Host_aggregate nj;
            ]
        | Wire | Nvlink_mesh _ ->
            [ Up i; Net_up ni; Net_down nj; Down j; Host_aggregate ni; Host_aggregate nj ]
      end

let same_node t i j = node_of t i = node_of t j

let own_cap t = function
  | H2d _ -> t.link.Spec.h2d_bandwidth
  | D2h _ -> t.link.Spec.d2h_bandwidth
  | P2p (i, j) -> (
      if same_node t i j then
        match t.flavor with
        | Nvlink_mesh { nv_bandwidth; _ } -> nv_bandwidth
        | Wire | Fat_tree _ | Multi_rail _ -> t.link.Spec.p2p_bandwidth
      else
        match t.topology with
        | Some topo -> Float.min t.link.Spec.p2p_bandwidth topo.internode_bandwidth
        | None -> t.link.Spec.p2p_bandwidth)

let setup_latency t dir =
  let link = t.link.Spec.link_latency in
  let same = match dir with P2p (i, j) -> same_node t i j | H2d _ | D2h _ -> true in
  match (dir, same, t.flavor) with
  | (H2d _ | D2h _), _, _ -> link
  | P2p _, true, Nvlink_mesh { nv_latency; _ } -> nv_latency
  | P2p _, true, (Wire | Fat_tree _ | Multi_rail _) -> link
  | P2p _, false, _ -> (
      match t.topology with Some topo -> link +. topo.internode_latency | None -> link)

let span_name = function
  | H2d i -> Printf.sprintf "pcie:h2d%d" i
  | D2h i -> Printf.sprintf "pcie:d2h%d" i
  | P2p (i, j) -> Printf.sprintf "pcie:p2p%d-%d" i j

(* H2d i, then D2h i, then P2p (i, j) row by row; the devices are
   checked here so that no out-of-range pair aliases another's slot. *)
let route_index t = function
  | H2d i ->
      check_dev t i;
      i
  | D2h i ->
      check_dev t i;
      t.num_gpus + i
  | P2p (i, j) ->
      check_dev t i;
      check_dev t j;
      ((2 + i) * t.num_gpus) + j

let route t dir =
  let k = route_index t dir in
  if Array.length t.routes = 0 then
    t.routes <- Array.make ((2 + t.num_gpus) * t.num_gpus) None;
  match t.routes.(k) with
  | Some r -> r
  | None ->
      let res = resources_of t dir in
      let own = own_cap t dir in
      let r =
        {
          res;
          rids = Array.of_list (List.map (rid_of t) res);
          own;
          latency = setup_latency t dir;
          alone = List.fold_left (fun acc r -> Float.min acc (capacity t r)) own res;
          name = lazy (span_name dir);
        }
      in
      t.routes.(k) <- Some r;
      r

let latency_of t dir = (route t dir).latency
let standalone_bandwidth t dir = (route t dir).alone
let resource_name t dir = Lazy.force (route t dir).name

let transfer_time_alone t dir ~bytes =
  if bytes <= 0 then 0.0
  else latency_of t dir +. (float_of_int bytes /. standalone_bandwidth t dir)

let topology t = t.topology
let flavor t = t.flavor

let flavor_name t =
  match t.flavor with
  | Wire -> "wire"
  | Fat_tree _ -> "fattree"
  | Multi_rail _ -> "multirail"
  | Nvlink_mesh _ -> "nvmesh"

let num_gpus t = t.num_gpus

(* One in-flight transfer of the reference allocator's fluid simulation. *)
type flow = {
  idx : int;
  res : resource list;
  cap : float;
  arrive : float;  (* ready + latency: when bytes start flowing *)
  total : float;  (* original size; completion threshold is relative to it *)
  mutable remaining : float;
  mutable rate : float;
  mutable fixed : bool;
  mutable start_time : float;
  mutable finish_time : float;
}

let check_bytes (req : request) =
  if req.bytes < 0 then invalid_arg "Fabric.run_batch: negative bytes"

let make_flows t reqs_arr completions =
  let flows = ref [] in
  Array.iteri
    (fun idx (req : request) ->
      check_bytes req;
      if req.bytes = 0 then
        completions.(idx) <- Some { req; start = req.ready; finish = req.ready }
      else begin
        let r = route t req.direction in
        flows :=
          {
            idx;
            res = r.res;
            cap = r.own;
            arrive = req.ready +. r.latency;
            total = float_of_int req.bytes;
            remaining = float_of_int req.bytes;
            rate = 0.0;
            fixed = false;
            start_time = req.ready;
            finish_time = nan;
          }
          :: !flows
      end)
    reqs_arr;
  List.rev !flows

(* The residue below which a flow counts as drained must scale with
   the flow, or tiny transfers finish early and huge ones drag a
   fixed byte tail: keep draining while more than 1e-12 of the
   original payload remains. The absolute floor keeps the threshold
   above double-precision resolution so the final subtraction can
   always cross it (a purely relative bound can sit below one ulp of
   [remaining] and loop forever). The floor must also scale with
   [rate *. ulp now]: subtracting [rate *. dt] can leave a residue
   of that order, and once [remaining /. rate] drops below one ulp
   of the clock, [now +. dt] rounds back to [now], dt collapses to
   zero and the loop makes no progress. Sessions sharing a machine
   only ever advance its clock, so late batches hit this where a
   fresh-machine run never does; bytes a flow cannot move within one
   representable time step are below the simulation's resolution
   anyway. *)
let[@inline] time_floor ~now rate = rate *. (8.0 *. epsilon_float *. Float.max 1.0 (Float.abs now))

let[@inline] is_drained ~now ~rate ~remaining ~total =
  remaining <= Float.max (time_floor ~now rate) (Float.max 1e-9 (1e-12 *. total))

let drained ~now (f : flow) =
  is_drained ~now ~rate:f.rate ~remaining:f.remaining ~total:f.total

(* Every flow must either have completed or been zero-byte; a hole here
   means the event loop dropped a request. Failing loudly beats
   fabricating a zero-duration completion that would silently corrupt
   downstream schedules. *)
let never_completed idx (req : request) =
  invalid_arg (Printf.sprintf "Fabric.run_batch: request %d (tag %S) never completed" idx req.tag)

let collect reqs_arr completions =
  Array.to_list
    (Array.mapi
       (fun idx c -> match c with Some c -> c | None -> never_completed idx reqs_arr.(idx))
       completions)

(* ------------------------------------------------------------------ *)
(* Reference path: the from-scratch allocator.                         *)
(*                                                                     *)
(* This is the pre-incremental event loop, kept verbatim: it rebuilds  *)
(* the water-filling state (fresh hashtables, full fixed point) on     *)
(* every event and min-scans the active set for the next completion.   *)
(* It exists as the equivalence oracle for the incremental path (the   *)
(* QCheck property in test_props pins bit-identical completions) and   *)
(* as the baseline the `bench sim` speedup is measured against.        *)
(* ------------------------------------------------------------------ *)

(* Max-min fair allocation by water filling over the active flows. *)
let assign_rates_reference t active =
  Bag.iter
    (fun f ->
      f.fixed <- false;
      f.rate <- 0.0)
    active;
  let remcap = Hashtbl.create 8 in
  let count = Hashtbl.create 8 in
  let touch r =
    if not (Hashtbl.mem remcap r) then Hashtbl.replace remcap r (capacity t r);
    Hashtbl.replace count r (1 + Option.value ~default:0 (Hashtbl.find_opt count r))
  in
  Bag.iter (fun f -> List.iter touch f.res) active;
  let unfixed = ref (Bag.length active) in
  while !unfixed > 0 do
    let bound f =
      List.fold_left
        (fun acc r ->
          let share = Hashtbl.find remcap r /. float_of_int (Hashtbl.find count r) in
          Float.min acc share)
        f.cap f.res
    in
    let lambda =
      Bag.fold (fun acc f -> if f.fixed then acc else Float.min acc (bound f)) infinity active
    in
    let eps = lambda *. 1e-9 in
    Bag.iter
      (fun f ->
        if (not f.fixed) && bound f <= lambda +. eps then begin
          f.fixed <- true;
          f.rate <- Float.max lambda 1.0 (* avoid zero rates from degenerate caps *);
          decr unfixed;
          List.iter
            (fun r ->
              Hashtbl.replace remcap r (Float.max 0.0 (Hashtbl.find remcap r -. f.rate));
              Hashtbl.replace count r (Hashtbl.find count r - 1))
            f.res
        end)
      active
  done

let run_batch_reference t reqs =
  let reqs_arr = Array.of_list reqs in
  let n = Array.length reqs_arr in
  let completions = Array.make n None in
  let flows = make_flows t reqs_arr completions in
  let pending = ref (List.sort (fun a b -> compare a.arrive b.arrive) flows) in
  let active = Bag.create () in
  let now = ref 0.0 in
  (match !pending with [] -> () | f :: _ -> now := f.arrive);
  while !pending <> [] || not (Bag.is_empty active) do
    (* Admit arrivals: [pending] is arrive-sorted, so the due flows form
       a prefix; push them in order (matching the old list append). *)
    let rec admit = function
      | f :: rest when f.arrive <= !now +. 1e-15 ->
          Bag.push active f;
          admit rest
      | rest -> rest
    in
    pending := admit !pending;
    if Bag.is_empty active then begin
      match !pending with
      | f :: _ -> now := f.arrive
      | [] -> ()
    end
    else begin
      assign_rates_reference t active;
      (* Next event: earliest completion among active, or next arrival. *)
      let next_completion =
        Bag.fold (fun acc f -> Float.min acc (!now +. (f.remaining /. f.rate))) infinity active
      in
      let next_arrival = match !pending with [] -> infinity | f :: _ -> f.arrive in
      let t_next = Float.min next_completion next_arrival in
      let dt = t_next -. !now in
      Bag.iter (fun f -> f.remaining <- f.remaining -. (f.rate *. dt)) active;
      now := t_next;
      Bag.filter_in_place active
        ~keep:(fun f -> not (drained ~now:!now f))
        ~removed:(fun f ->
          f.finish_time <- !now;
          completions.(f.idx) <-
            Some { req = reqs_arr.(f.idx); start = f.start_time; finish = f.finish_time })
    end
  done;
  collect reqs_arr completions

(* ------------------------------------------------------------------ *)
(* Incremental path.                                                   *)
(*                                                                     *)
(* Same fluid simulation, same floats, near-constant per-event work:   *)
(*  - resources are dense ints; capacity lives in [t.caps], and the    *)
(*    active-flow count per resource is maintained incrementally on    *)
(*    admit/complete instead of being rebuilt from the whole active    *)
(*    set each event;                                                  *)
(*  - the water filling runs over flat scratch arrays with no          *)
(*    allocation, visiting flows in admission order so every float     *)
(*    lands in the same place as the reference's hashtable walk;       *)
(*  - when the flows added/removed by an event share no resource with  *)
(*    the rest of the active set, the surviving rates are provably     *)
(*    unchanged and the global refill is skipped (admissions get a     *)
(*    fill over just themselves);                                      *)
(*  - flows are columns of unboxed arrays in request order, admitted   *)
(*    through a cursor over their slots stable-sorted by arrival (no   *)
(*    sort when already in order); the per-event sweeps (completion    *)
(*    min-scan, drain + compaction) are fused, allocation-free array   *)
(*    passes;                                                          *)
(*  - completions are built once, in request order, from the columns.  *)
(* See docs/PERF.md for the invariants and the bench methodology.      *)
(* ------------------------------------------------------------------ *)

(* A batch's flows on the incremental path, as columns indexed by slot:
   slot [s] is the [s]th nonzero request, in request order, and only
   slots [0, n) are used. The floats sit unboxed in float arrays, so the
   per-event passes allocate nothing and read each flow's state from a
   few dense arrays. *)
type columns = {
  n : int;
  rids : int array array;  (* a route's interned resources, shared; read only *)
  cap : float array;
  arrive : float array;  (* ready + latency: when bytes start flowing *)
  total : float array;
  remaining : float array;
  rate : float array;
  fixed : bool array;
  finish : float array;  (* nan until the slot drains *)
}

(* Checked and routed request by request, like the reference. *)
let columns_of t req_of xs =
  let len = List.length xs in
  let rids = Array.make len [||] and cap = Array.make len 0.0 and arrive = Array.make len 0.0 in
  let total = Array.make len 0.0 in
  let n = ref 0 in
  List.iter
    (fun x ->
      let req = req_of x in
      check_bytes req;
      if req.bytes > 0 then begin
        let r = route t req.direction and s = !n in
        rids.(s) <- r.rids;
        cap.(s) <- r.own;
        arrive.(s) <- req.ready +. r.latency;
        total.(s) <- float_of_int req.bytes;
        n := s + 1
      end)
    xs;
  {
    n = !n;
    rids;
    cap;
    arrive;
    total;
    remaining = Array.copy total;
    rate = Array.make len 0.0;
    fixed = Array.make len false;
    finish = Array.make len nan;
  }

(* The slots in admission order: stable-sorted by arrival, so ties admit
   in request order, as in the reference's [List.sort]. When the
   arrivals are already in order the sort is skipped. *)
let arrival_order c =
  let order = Array.init c.n Fun.id in
  let k = ref 1 in
  while !k < c.n && c.arrive.(!k - 1) <= c.arrive.(!k) do
    incr k
  done;
  if !k < c.n then Array.stable_sort (fun a b -> Float.compare c.arrive.(a) c.arrive.(b)) order;
  order

(* When the [next]th slot in admission order arrives; infinity once
   every slot is in. *)
let[@inline] arrival_at c pending next = if next < c.n then c.arrive.(pending.(next)) else infinity

(* Water filling over the slots [active[lo..hi)] against the persistent
   per-rid [count], using [remcap]/[workcount] as per-run scratch.
   Bit-for-bit the same arithmetic as [assign_rates_reference]: same
   flow visit order, same per-resource visit order, same Float.min
   folds. *)
let waterfill t ~count ~remcap ~workcount c active lo hi =
  Array.blit t.caps 0 remcap 0 (Array.length t.caps);
  Array.blit count 0 workcount 0 (Array.length count);
  for k = lo to hi - 1 do
    let s = active.(k) in
    c.fixed.(s) <- false;
    c.rate.(s) <- 0.0
  done;
  (* A slot's bound is the least of its own cap and every resource's
     remaining capacity over its unfixed flows. It is written out in
     both passes below so that it stays an unboxed local: a function
     returning it would box a float per call. *)
  let unfixed = ref (hi - lo) in
  while !unfixed > 0 do
    let lambda = ref infinity in
    for k = lo to hi - 1 do
      let s = active.(k) in
      if not c.fixed.(s) then begin
        let b = ref c.cap.(s) in
        let rids = c.rids.(s) in
        for q = 0 to Array.length rids - 1 do
          let r = Array.unsafe_get rids q in
          b := Float.min !b (Array.unsafe_get remcap r /. float_of_int (Array.unsafe_get workcount r))
        done;
        lambda := Float.min !lambda !b
      end
    done;
    let lambda = !lambda in
    let eps = lambda *. 1e-9 in
    for k = lo to hi - 1 do
      let s = active.(k) in
      if not c.fixed.(s) then begin
        let b = ref c.cap.(s) in
        let rids = c.rids.(s) in
        for q = 0 to Array.length rids - 1 do
          let r = Array.unsafe_get rids q in
          b := Float.min !b (Array.unsafe_get remcap r /. float_of_int (Array.unsafe_get workcount r))
        done;
        if !b <= lambda +. eps then begin
          c.fixed.(s) <- true;
          let rate = Float.max lambda 1.0 (* avoid zero rates from degenerate caps *) in
          c.rate.(s) <- rate;
          decr unfixed;
          for q = 0 to Array.length rids - 1 do
            let r = Array.unsafe_get rids q in
            remcap.(r) <- Float.max 0.0 (remcap.(r) -. rate);
            workcount.(r) <- workcount.(r) - 1
          done
        end
      end
    done
  done

(* [f x c] for each element and its completion, in request order; a
   zero-byte request completes at its ready time. *)
let[@tail_mod_cons] rec completions c req_of f idx s = function
  | [] -> []
  | x :: rest ->
      let req = req_of x in
      if req.bytes = 0 then
        let y = f x { req; start = req.ready; finish = req.ready } in
        y :: completions c req_of f (idx + 1) s rest
      else
        let finish = c.finish.(s) in
        if Float.is_nan finish then never_completed idx req;
        let y = f x { req; start = req.ready; finish } in
        y :: completions c req_of f (idx + 1) (s + 1) rest

let map_batch t req_of f xs =
  let c = columns_of t req_of xs in
  let pending = arrival_order c in
  let next = ref 0 in
  let nres = Array.length t.caps in
  let count = Array.make nres 0 in
  let remcap = Array.make nres 0.0 in
  let workcount = Array.make nres 0 in
  (* The active slots in admission order; [active.(0 .. live-1)]. *)
  let active = Array.make c.n 0 in
  let live = ref 0 in
  let now = ref 0.0 in
  if c.n > 0 then now := arrival_at c pending !next;
  (* Rates in [active] are valid when they bitwise equal what a global
     refill over the current active set would produce. Any admit or
     complete that shares a resource with the survivors invalidates. *)
  let rates_valid = ref false in
  while !next < c.n || !live > 0 do
    (* Admit due arrivals. *)
    let admit_lo = !live in
    while arrival_at c pending !next <= !now +. 1e-15 do
      active.(!live) <- pending.(!next);
      incr live;
      incr next
    done;
    let admit_hi = !live in
    if admit_hi > admit_lo then begin
      (* Disjointness check must see pre-admission counts, so count the
         batch in a second pass. Intra-batch sharing is fine: the fill
         over [admit_lo, admit_hi) handles it. *)
      let disjoint = ref true in
      for k = admit_lo to admit_hi - 1 do
        let rids = c.rids.(active.(k)) in
        for q = 0 to Array.length rids - 1 do
          if count.(Array.unsafe_get rids q) <> 0 then disjoint := false
        done
      done;
      for k = admit_lo to admit_hi - 1 do
        let rids = c.rids.(active.(k)) in
        for q = 0 to Array.length rids - 1 do
          let r = Array.unsafe_get rids q in
          count.(r) <- count.(r) + 1
        done
      done;
      if !rates_valid && !disjoint then
        (* The newcomers touch only idle resources: everyone else's rate
           is unchanged, so fill over just the new flows. *)
        waterfill t ~count ~remcap ~workcount c active admit_lo admit_hi
      else rates_valid := false
    end;
    if !live = 0 then begin
      if !next < c.n then now := arrival_at c pending !next
    end
    else begin
      if not !rates_valid then begin
        waterfill t ~count ~remcap ~workcount c active 0 !live;
        rates_valid := true
      end;
      (* Next event: earliest completion among active, or next arrival.
         Same scan as the reference — projected finishes must be computed
         from the current (now, remaining) so the stepped float
         arithmetic stays bit-identical. *)
      let next_completion = ref infinity in
      for k = 0 to !live - 1 do
        let s = active.(k) in
        next_completion := Float.min !next_completion (!now +. (c.remaining.(s) /. c.rate.(s)))
      done;
      let t_next = Float.min !next_completion (arrival_at c pending !next) in
      let dt = t_next -. !now in
      now := t_next;
      (* Fused drain + compaction: subtract this interval's payload and
         drop drained flows in one stable pass (per-flow arithmetic is
         independent, so fusing the reference's two passes is exact).
         Completed flows release their resource counts; if any released
         resource is still in use by a survivor, the survivors' rates
         changed and the next iteration refills. *)
      let all_private = ref true in
      let kept = ref 0 in
      for k = 0 to !live - 1 do
        let s = active.(k) in
        let remaining = c.remaining.(s) -. (c.rate.(s) *. dt) in
        c.remaining.(s) <- remaining;
        if not (is_drained ~now:!now ~rate:c.rate.(s) ~remaining ~total:c.total.(s)) then begin
          active.(!kept) <- s;
          incr kept
        end
        else begin
          c.finish.(s) <- !now;
          let rids = c.rids.(s) in
          for q = 0 to Array.length rids - 1 do
            let r = Array.unsafe_get rids q in
            count.(r) <- count.(r) - 1;
            if count.(r) <> 0 then all_private := false
          done
        end
      done;
      let any_removed = !kept < !live in
      live := !kept;
      if any_removed && not !all_private then rates_valid := false
    end
  done;
  completions c req_of f 0 0 xs

let run_batch t reqs = map_batch t Fun.id (fun _ c -> c) reqs
