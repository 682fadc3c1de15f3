module Kernel_plan = Mgacc_translator.Kernel_plan
module Array_config = Mgacc_analysis.Array_config
module Memory = Mgacc_gpusim.Memory
module Fabric = Mgacc_gpusim.Fabric
module Cost = Mgacc_gpusim.Cost
module Interval = Mgacc_util.Interval
open Mgacc_minic

type op_kind = Dirty_chunk | Miss_ship | Halo_segment | Red_gather | Red_bcast

type op = {
  dir : Fabric.direction;
  bytes : int;
  tag : string;
  array : string;
  kind : op_kind;
  round : int;
  group : int;
}

(* Field by field, every comparison at its own type: no polymorphic
   compare walks the records, and [String.equal] returns at once on a
   physically shared string. *)
let equal_dir (a : Fabric.direction) (b : Fabric.direction) =
  match (a, b) with
  | Fabric.H2d x, Fabric.H2d y | Fabric.D2h x, Fabric.D2h y -> Int.equal x y
  | Fabric.P2p (s, d), Fabric.P2p (s', d') -> Int.equal s s' && Int.equal d d'
  | (Fabric.H2d _ | Fabric.D2h _ | Fabric.P2p _), _ -> false

let equal_op a b =
  equal_dir a.dir b.dir && Int.equal a.bytes b.bytes && String.equal a.tag b.tag
  && String.equal a.array b.array
  (* constant constructors: physical equality is equality *)
  && a.kind == b.kind
  && Int.equal a.round b.round && Int.equal a.group b.group

let equal_ops = List.equal equal_op

type gpu_kernel = { gpu : int; array : string; cost : Cost.t; label : string }

type consumer_window = Cw_none | Cw_all | Cw_windows of Interval.Set.t array

type result = {
  ops : op list;
  replays : gpu_kernel list;
  combines : gpu_kernel list;
  scans : (int * string * float) list;
  scan_seconds : float;
  coh : (string * int * int) list;
}

(* Host-side cost of inspecting one array's second-level bits. *)
let scan_base_seconds = 2e-6
let scan_per_chunk_seconds = 20e-9

(* [v ∪ w] for runs [w] inside [\[0, n)]: a valid set that is already
   the whole array stays what it is, without walking [w]. *)
let cover ~n v w =
  match Interval.Set.to_list v with
  | [ { Interval.lo = 0; hi } ] when hi = n -> v
  | _ -> Interval.Set.union v w

(* Element-wise merge of each writer's dirty runs into the other
   replicas (paper §IV-D). The coherence policy is three choices:
   - the read window: what a destination takes of a writer's runs. Eager
     coherence passes [Cw_all]; lazy coherence passes the next reader's
     window, so a destination takes the runs inside it ([Cw_windows]) or
     nothing ([Cw_none]) and the rest is deferred;
   - the payload: eager ships the dirty chunks plus their first-level bits
     ({!Dirty.transfer_bytes}); lazy ships ranged runs, the run lengths
     plus an 8-byte (base, count) header per run, merged by range;
   - validity: only lazy coherence tracks it. A destination's replica
     goes stale on the writer's runs it did not take, and pulls them on
     demand if a later consumer shows up. Eager replicas are always fully
     valid and nothing reads their valid sets.
   Writers merge in ascending GPU order, so overlapping writes resolve to
   the same values under both policies. The shipped runs stage through
   system buffers on both ends (the receiver needs the payload to merge),
   so the staging shows up in the Fig. 9 "System" accounting. Because of
   the staging, a run may be in flight while the receiver's kernel still
   runs: the overlap engine only gates the send on the *source's* kernel
   finish plus this array's scan.

   A destination that takes a writer's whole run set shares that set
   physically ([s == w] below), so each writer's payload size is computed
   once and a broadcast is a physical-equality test. Only per-destination
   windows need per-pair tables. The work follows the writer's runs, not
   runs x destinations: all the destinations that take the whole set are
   filled in one pass over the runs, and a destination whose valid set
   is already the whole array keeps it without walking the runs. Only a
   destination that takes part of the runs copies and diffs on its own. *)
let merge_replicated cfg (da : Darray.t) ~(window : consumer_window) ~fresh_group =
  let r = Darray.replica_of da in
  let num_gpus = cfg.Rt_config.num_gpus in
  let lazy_mode = Rt_config.lazy_coherence cfg in
  let mem g = (Mgacc_gpusim.Machine.device cfg.Rt_config.machine g).Mgacc_gpusim.Device.memory in
  let elem_bytes = Darray.elem_bytes da in
  let tag = da.Darray.name ^ ":dirty" in
  let ranged_bytes s =
    List.fold_left
      (fun acc (iv : Interval.t) -> acc + (Interval.length iv * elem_bytes) + 8)
      0 (Interval.Set.to_list s)
  in
  let scans = ref [] in
  let runs = Array.make num_gpus Interval.Set.empty in
  let payload = Array.make num_gpus 0 in
  for src = 0 to num_gpus - 1 do
    match r.Darray.dirty.(src) with
    | None -> ()
    | Some d ->
        scans :=
          ( src,
            da.Darray.name,
            scan_base_seconds +. (float_of_int (Dirty.total_chunks d) *. scan_per_chunk_seconds) )
          :: !scans;
        if Dirty.any_dirty d then begin
          runs.(src) <- Dirty.dirty_runs d;
          payload.(src) <- (if lazy_mode then ranged_bytes runs.(src) else Dirty.transfer_bytes d)
        end
  done;
  let pairs =
    match window with
    | Cw_windows ws ->
        Array.mapi
          (fun src w ->
            Array.init num_gpus (fun dst ->
                if dst = src || Interval.Set.is_empty w then (Interval.Set.empty, 0)
                else
                  let s = Interval.Set.inter w ws.(dst) in
                  if Interval.Set.equal s w then (w, payload.(src)) else (s, ranged_bytes s)))
          runs
    | Cw_none | Cw_all -> [||]
  in
  (* What [dst] takes of [src]'s runs, and its payload. *)
  let ship src dst =
    match window with
    | Cw_none -> Interval.Set.empty
    | Cw_all -> runs.(src)
    | Cw_windows _ -> fst pairs.(src).(dst)
  in
  let ship_bytes src dst =
    match window with
    | Cw_none -> 0
    | Cw_all -> payload.(src)
    | Cw_windows _ -> snd pairs.(src).(dst)
  in
  (* One send buffer per writing GPU and one receive buffer per GPU, each
     sized for its largest ship: the runs stream through these. *)
  let send_bytes = Array.make num_gpus 0 and incoming = Array.make num_gpus 0 in
  for src = 0 to num_gpus - 1 do
    for dst = 0 to num_gpus - 1 do
      if dst <> src then begin
        let b = ship_bytes src dst in
        send_bytes.(src) <- max send_bytes.(src) b;
        incoming.(dst) <- max incoming.(dst) b
      end
    done
  done;
  let staging = ref [] in
  for g = 0 to num_gpus - 1 do
    if send_bytes.(g) > 0 then
      staging := (g, Memory.alloc_raw (mem g) `System send_bytes.(g)) :: !staging;
    if incoming.(g) > 0 then
      staging := (g, Memory.alloc_raw (mem g) `System incoming.(g)) :: !staging
  done;
  let ops = ref [] in
  let shipped = ref 0 in
  let deferred = ref 0 in
  for src = 0 to num_gpus - 1 do
    let w = runs.(src) in
    if not (Interval.Set.is_empty w) then begin
      if lazy_mode then r.Darray.valid.(src) <- cover ~n:da.Darray.length r.Darray.valid.(src) w;
      let w_bytes = Interval.Set.total_length w * elem_bytes in
      (* Collective-eligible only when every peer receives the full dirty
         payload (same content everywhere — a true broadcast). Per-window
         ships differ per destination and must stay point-to-point. *)
      let is_broadcast =
        let ok = ref true in
        for dst = 0 to num_gpus - 1 do
          if dst <> src && ship src dst != w then ok := false
        done;
        !ok
      in
      let group = if is_broadcast then fresh_group () else -1 in
      (* The destinations that take all of [w], filled in one pass after
         the ops are built. *)
      let whole = ref [] in
      for dst = 0 to num_gpus - 1 do
        if dst <> src then begin
          let s = ship src dst in
          if s != w then
            deferred := !deferred + w_bytes - (Interval.Set.total_length s * elem_bytes);
          (* The writer's runs go stale on [dst] and the shipped part
             becomes valid again: [(v \ w) ∪ s]. When [s] is all of [w]
             that is [v ∪ w], one union or none, and a normalized set has
             one representation, so every form gives the same list. *)
          if lazy_mode then
            r.Darray.valid.(dst) <-
              (if s == w then cover ~n:da.Darray.length r.Darray.valid.(dst) w
               else
                 let stale = Interval.Set.diff r.Darray.valid.(dst) w in
                 if Interval.Set.is_empty s then stale else Interval.Set.union stale s);
          if not (Interval.Set.is_empty s) then begin
            let bytes = ship_bytes src dst in
            shipped := !shipped + bytes;
            ops :=
              {
                dir = Fabric.P2p (src, dst);
                bytes;
                tag;
                array = da.Darray.name;
                kind = Dirty_chunk;
                round = 0;
                group;
              }
              :: !ops;
            if s == w then whole := dst :: !whole
            else Darray.copy_replica_runs da r ~src ~dsts:[ dst ] s
          end
        end
      done;
      Darray.copy_replica_runs da r ~src ~dsts:!whole w
    end
  done;
  (* Staging buffers are released (their peak remains in the memory
     accounting). *)
  List.iter (fun (g, buf) -> Memory.free (mem g) buf) !staging;
  Array.iter (function Some d -> Dirty.clear d | None -> ()) r.Darray.dirty;
  (List.rev !ops, List.rev !scans, !shipped, !deferred)

(* Ship miss records to their owners and replay them there. *)
let drain_misses cfg (da : Darray.t) =
  match da.Darray.state with
  | Darray.Distributed dist ->
      let num_gpus = cfg.Rt_config.num_gpus in
      let ops = ref [] in
      let replay_counts = Array.make num_gpus 0 in
      for src = 0 to num_gpus - 1 do
        let part = dist.Darray.parts.(src) in
        if not (Miss_buffer.is_empty part.Darray.miss) then begin
          (* Group records by owner, preserving order. *)
          let per_owner = Array.make num_gpus [] in
          List.iter
            (fun (idx, v) ->
              let owner = Darray.owner_of dist idx in
              per_owner.(owner) <- (idx, v) :: per_owner.(owner))
            (Miss_buffer.entries part.Darray.miss);
          let record_bytes = 4 + Darray.elem_bytes da in
          Array.iteri
            (fun owner entries_rev ->
              let entries = List.rev entries_rev in
              if entries <> [] then begin
                if owner <> src then begin
                  let payload =
                    if Rt_config.lazy_coherence cfg then begin
                      (* RLE the record indices into (base, count) range
                         ships: an 8-byte header per contiguous run plus
                         one value per unique index, instead of a
                         4+elem-byte record per write. *)
                      let idxs = List.sort_uniq compare (List.map fst entries) in
                      let runs, _ =
                        List.fold_left
                          (fun (runs, prev) i ->
                            match prev with
                            | Some p when i = p + 1 -> (runs, Some i)
                            | _ -> (runs + 1, Some i))
                          (0, None) idxs
                      in
                      (runs * 8) + (List.length idxs * Darray.elem_bytes da)
                    end
                    else List.length entries * record_bytes
                  in
                  ops :=
                    {
                      dir = Fabric.P2p (src, owner);
                      bytes = payload;
                      tag = da.Darray.name ^ ":miss";
                      array = da.Darray.name;
                      kind = Miss_ship;
                      round = 0;
                      group = -1;
                    }
                    :: !ops;
                  (* The records stage in a system buffer on the owner
                     until the replay kernel consumes them. *)
                  let mem =
                    (Mgacc_gpusim.Machine.device cfg.Rt_config.machine owner)
                      .Mgacc_gpusim.Device.memory
                  in
                  Memory.free mem (Memory.alloc_raw mem `System payload);
                  replay_counts.(owner) <- replay_counts.(owner) + List.length entries
                end;
                (* Functional replay into the owner's partition (offset
                   through the part, which may be a 2-D tile). A "miss"
                   owned locally (conservative check) applies in place,
                   with no traffic. *)
                let opart = dist.Darray.parts.(owner) in
                let off idx = Darray.offset_in_part dist.Darray.spec opart idx in
                match da.Darray.elem with
                | Ast.Edouble ->
                    let d = Memory.float_data opart.Darray.buf in
                    List.iter
                      (fun (idx, v) ->
                        match v with
                        | Miss_buffer.Vf f -> d.(off idx) <- f
                        | Miss_buffer.Vi _ -> assert false)
                      entries
                | Ast.Eint ->
                    let d = Memory.int_data opart.Darray.buf in
                    List.iter
                      (fun (idx, v) ->
                        match v with
                        | Miss_buffer.Vi n -> d.(off idx) <- n
                        | Miss_buffer.Vf _ -> assert false)
                      entries
              end)
            per_owner;
          Miss_buffer.drain part.Darray.miss
        end
      done;
      let replays =
        Array.to_list replay_counts
        |> List.mapi (fun gpu n ->
               if n = 0 then None
               else begin
                 let cost = Cost.zero () in
                 cost.Cost.random_accesses <- n;
                 cost.Cost.random_bytes <- n * Darray.elem_bytes da;
                 cost.Cost.int_ops <- 2 * n;
                 Some { gpu; array = da.Darray.name; cost; label = da.Darray.name ^ ":replay" }
               end)
        |> List.filter_map Fun.id
      in
      (List.rev !ops, replays)
  | Darray.Unallocated | Darray.Replicated _ -> ([], [])

(* 2-D variant: each destination's halo is up to four rectangles around
   its owned tile (whole halo rows above and below the resident column
   window, halo columns beside the owned rows). Per rectangle row the
   columns split into maximal same-owner segments (an owner's columns are
   contiguous, so a segment ends at the owner's column-block edge); the
   per-(owner, dst) bytes aggregate into ONE wire op per pair — the
   transfer granularity a real 2-D exchange would use — while the
   functional copies happen per segment. *)
let halo_exchange_tiled cfg (da : Darray.t) dist =
  let num_gpus = cfg.Rt_config.num_gpus in
  let spec = dist.Darray.spec in
  let stride = spec.Darray.stride in
  let ops = ref [] in
  for dst = 0 to num_gpus - 1 do
    let part = dist.Darray.parts.(dst) in
    match part.Darray.tile with
    | None -> ()
    | Some tl ->
        let rects =
          [
            ( Interval.make tl.Darray.trow_win.Interval.lo tl.Darray.trows.Interval.lo,
              tl.Darray.tcol_win );
            ( Interval.make tl.Darray.trows.Interval.hi tl.Darray.trow_win.Interval.hi,
              tl.Darray.tcol_win );
            (tl.Darray.trows, Interval.make tl.Darray.tcol_win.Interval.lo tl.Darray.tcols.Interval.lo);
            (tl.Darray.trows, Interval.make tl.Darray.tcols.Interval.hi tl.Darray.tcol_win.Interval.hi);
          ]
        in
        let bytes_from = Array.make num_gpus 0 in
        List.iter
          (fun ((rows : Interval.t), (cols : Interval.t)) ->
            if not (Interval.is_empty rows || Interval.is_empty cols) then
              for r = rows.Interval.lo to rows.Interval.hi - 1 do
                let c = ref cols.Interval.lo in
                while !c < cols.Interval.hi do
                  let idx = (r * stride) + !c in
                  let owner = Darray.owner_of dist idx in
                  let oc =
                    match dist.Darray.parts.(owner).Darray.tile with
                    | Some ot -> ot.Darray.tcols
                    | None -> assert false
                  in
                  let c_hi = min cols.Interval.hi oc.Interval.hi in
                  let seg = Interval.make idx ((r * stride) + c_hi) in
                  if owner <> dst then begin
                    Darray.copy_seg_part_to_part da spec ~src:dist.Darray.parts.(owner) ~dst:part
                      seg;
                    bytes_from.(owner) <-
                      bytes_from.(owner) + (Interval.length seg * Darray.elem_bytes da)
                  end;
                  c := max c_hi (!c + 1)
                done
              done)
          rects;
        Array.iteri
          (fun owner bytes ->
            if bytes > 0 then
              ops :=
                {
                  dir = Fabric.P2p (owner, dst);
                  bytes;
                  tag = da.Darray.name ^ ":halo";
                  array = da.Darray.name;
                  kind = Halo_segment;
                  round = 0;
                  group = -1;
                }
                :: !ops)
          bytes_from
  done;
  Darray.mark_halo_synced da;
  List.rev !ops

(* Refresh halo copies from their owners after the partitions changed. *)
let halo_exchange cfg (da : Darray.t) =
  match da.Darray.state with
  | Darray.Distributed dist when dist.Darray.spec.Darray.tile <> None ->
      halo_exchange_tiled cfg da dist
  | Darray.Distributed dist ->
      let num_gpus = cfg.Rt_config.num_gpus in
      let ops = ref [] in
      for dst = 0 to num_gpus - 1 do
        let part = dist.Darray.parts.(dst) in
        let halo =
          Interval.Set.diff
            (Interval.Set.of_interval part.Darray.window)
            (Interval.Set.of_interval part.Darray.own)
        in
        List.iter
          (fun (iv : Interval.t) ->
            (* A halo interval may span several owners. *)
            let cursor = ref iv.Interval.lo in
            while !cursor < iv.Interval.hi do
              let owner = Darray.owner_of dist !cursor in
              let oown = dist.Darray.parts.(owner).Darray.own in
              let seg_hi = min iv.Interval.hi oown.Interval.hi in
              let seg = Interval.make !cursor seg_hi in
              if owner <> dst && not (Interval.is_empty seg) then begin
                ops :=
                  {
                    dir = Fabric.P2p (owner, dst);
                    bytes = Interval.length seg * Darray.elem_bytes da;
                    tag = da.Darray.name ^ ":halo";
                    array = da.Darray.name;
                    kind = Halo_segment;
                    round = 0;
                    group = -1;
                  }
                  :: !ops;
                Darray.copy_part_to_part da ~src:dist.Darray.parts.(owner) ~dst:part seg
              end;
              cursor := max seg_hi (!cursor + 1)
            done)
          (Interval.Set.to_list halo)
      done;
      Darray.mark_halo_synced da;
      List.rev !ops
  | Darray.Unallocated | Darray.Replicated _ -> []

let reconcile cfg plan ~get_darray ~reductions ~wrote ~next_window =
  (* Accumulators are built reversed with constant-time prepends and
     reversed once at the end (the old [l := !l @ x] was quadratic in the
     number of transfers). *)
  let lazy_mode = Rt_config.lazy_coherence cfg in
  (* Eager coherence is the lazy protocol with a whole-array window. *)
  let window name = if lazy_mode then next_window name else Cw_all in
  let ops = ref [] in
  let replays = ref [] in
  let combines = ref [] in
  let scans = ref [] in
  let coh = ref [] in
  (* Collective group ids, unique within this reconciliation. *)
  let gid = ref 0 in
  let fresh_group () =
    incr gid;
    !gid
  in
  let prepend_all dst xs = List.iter (fun x -> dst := x :: !dst) xs in
  List.iter
    (fun (c : Array_config.t) ->
      let name = c.Array_config.array in
      if c.Array_config.written && wrote name then begin
        let da = get_darray name in
        Darray.mark_device_written da;
        match Kernel_plan.placement_of plan name with
        | Array_config.Replicated ->
            if cfg.Rt_config.num_gpus > 1 then begin
              let x, s, shipped, deferred =
                merge_replicated cfg da ~window:(window name) ~fresh_group
              in
              prepend_all ops x;
              prepend_all scans s;
              coh := (name, shipped, deferred) :: !coh
            end
        | Array_config.Distributed ->
            let x_miss, r = drain_misses cfg da in
            let x_halo = if da.Darray.written_since_halo_sync then halo_exchange cfg da else [] in
            prepend_all ops x_miss;
            prepend_all ops x_halo;
            prepend_all replays r
      end)
    plan.Kernel_plan.configs;
  (* Array reductions. *)
  List.iter
    (fun (name, red) ->
      let da = get_darray name in
      let ship =
        match window name with
        | Cw_none -> `Defer
        | Cw_all | Cw_windows _ -> if lazy_mode then `Tree else `Star
      in
      let m = Reduction.merge cfg red da ~ship in
      (* Every broadcast edge (star or binomial tree alike) carries the
         same combined result, so all of an array's Red_bcast ops form
         one collective group. Under planned collectives, when the result
         is actually broadcast (not deferred), the gathers join the same
         group: the pair is an allreduce the planner can lower to ring
         reduce-scatter/all-gather. Otherwise gathers pass through as
         point-to-point partial ships. *)
      let allreduce =
        Rt_config.planned_collectives cfg
        && List.exists (fun (_, role, _) -> role = Reduction.Bcast) m.Reduction.xfers
      in
      let red_group = ref (-1) in
      let shared () =
        if !red_group < 0 then red_group := fresh_group ();
        !red_group
      in
      let shipped = ref 0 in
      List.iter
        (fun ((x : Darray.xfer), role, round) ->
          let kind, group =
            match role with
            | Reduction.Gather -> (Red_gather, if allreduce then shared () else -1)
            | Reduction.Bcast -> (Red_bcast, shared ())
          in
          shipped := !shipped + x.Darray.bytes;
          ops :=
            {
              dir = x.Darray.dir;
              bytes = x.Darray.bytes;
              tag = x.Darray.tag;
              array = name;
              kind;
              round;
              group;
            }
            :: !ops)
        m.Reduction.xfers;
      if not (Cost.is_zero m.Reduction.combine_cost) then
        combines :=
          { gpu = 0; array = name; cost = m.Reduction.combine_cost; label = name ^ ":combine" }
          :: !combines;
      coh := (name, !shipped, m.Reduction.deferred_bytes) :: !coh)
    reductions;
  let scans = List.rev !scans in
  {
    ops = List.rev !ops;
    replays = List.rev !replays;
    combines = List.rev !combines;
    scans;
    scan_seconds = List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 scans;
    coh = List.rev !coh;
  }
