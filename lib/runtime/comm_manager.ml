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

let xfers_of r =
  List.map (fun op -> { Darray.dir = op.dir; bytes = op.bytes; tag = op.tag }) r.ops

let gpu_kernel_costs_of r =
  List.map (fun k -> (k.gpu, k.cost, k.label)) r.replays
  @ List.map (fun k -> (k.gpu, k.cost, k.label)) r.combines

(* Host-side cost of inspecting one array's second-level bits. *)
let scan_base_seconds = 2e-6
let scan_per_chunk_seconds = 20e-9

(* Element-wise merge of GPU [src]'s dirty runs into every other replica.
   The exchanged chunks stage through system buffers on both ends (paper
   §IV-D: the receiver needs the chunk payload plus its bits to merge), so
   the staging shows up in the Fig. 9 "System" accounting. Because of the
   staging, a chunk may be in flight while the receiver's kernel still
   runs: the overlap engine only gates the send on the *source's* kernel
   finish plus this array's scan. *)
let merge_replicated cfg (da : Darray.t) ~fresh_group =
  let r = Darray.replica_of da in
  let num_gpus = cfg.Rt_config.num_gpus in
  let mem g = (Mgacc_gpusim.Machine.device cfg.Rt_config.machine g).Mgacc_gpusim.Device.memory in
  let ops = ref [] in
  let scans = ref [] in
  let staging = ref [] in
  (* One send buffer per writing GPU and one receive buffer per GPU (sized
     for the largest incoming batch): the chunks stream through these. *)
  let send_bytes = Array.make num_gpus 0 in
  for src = 0 to num_gpus - 1 do
    match r.Darray.dirty.(src) with
    | None -> ()
    | Some d -> if Dirty.any_dirty d then send_bytes.(src) <- Dirty.transfer_bytes d
  done;
  for g = 0 to num_gpus - 1 do
    if send_bytes.(g) > 0 then staging := (g, Memory.alloc_raw (mem g) `System send_bytes.(g)) :: !staging;
    let incoming =
      Array.fold_left max 0 (Array.mapi (fun src b -> if src = g then 0 else b) send_bytes)
    in
    if incoming > 0 then staging := (g, Memory.alloc_raw (mem g) `System incoming) :: !staging
  done;
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
          let bytes = Dirty.transfer_bytes d in
          let runs = Dirty.dirty_runs d in
          (* Every destination receives the same full dirty payload, so
             the per-src star is a broadcast the planner may reshape. *)
          let group = fresh_group () in
          for dst = 0 to num_gpus - 1 do
            if dst <> src then begin
              ops :=
                {
                  dir = Fabric.P2p (src, dst);
                  bytes;
                  tag = da.Darray.name ^ ":dirty";
                  array = da.Darray.name;
                  kind = Dirty_chunk;
                  round = 0;
                  group;
                }
                :: !ops;
              (* Functional merge of exactly the dirty elements. *)
              (match da.Darray.elem with
              | Ast.Edouble ->
                  let s = Memory.float_data r.Darray.bufs.(src) in
                  let t = Memory.float_data r.Darray.bufs.(dst) in
                  List.iter
                    (fun (iv : Interval.t) ->
                      Array.blit s iv.Interval.lo t iv.Interval.lo (Interval.length iv))
                    (Interval.Set.to_list runs)
              | Ast.Eint ->
                  let s = Memory.int_data r.Darray.bufs.(src) in
                  let t = Memory.int_data r.Darray.bufs.(dst) in
                  List.iter
                    (fun (iv : Interval.t) ->
                      Array.blit s iv.Interval.lo t iv.Interval.lo (Interval.length iv))
                    (Interval.Set.to_list runs))
            end
          done
        end
  done;
  (* All replicas agree again; staging buffers are released (their peak
     remains in the memory accounting). *)
  List.iter (fun (g, buf) -> Memory.free (mem g) buf) !staging;
  Array.iter (function Some d -> Dirty.clear d | None -> ()) r.Darray.dirty;
  (List.rev !ops, List.rev !scans)

(* Lazy (consumer-driven) variant: intersect each writer's exact dirty
   runs with each destination's upcoming read window and ship only the
   surviving intervals, coalesced into ranged transfers (payload = run
   lengths + an 8-byte (base, count) header per run — no chunk bits ride
   along, the receiver merges by range). Everything outside the window
   is deferred: the destination replica is marked stale there and pulls
   on demand if a later consumer shows up. Writers are processed in
   ascending GPU order exactly like the eager path, so overlapping
   writes resolve to the same final values. *)
let merge_replicated_lazy cfg (da : Darray.t) ~(window : consumer_window) ~fresh_group =
  let r = Darray.replica_of da in
  let num_gpus = cfg.Rt_config.num_gpus in
  let mem g = (Mgacc_gpusim.Machine.device cfg.Rt_config.machine g).Mgacc_gpusim.Device.memory in
  let elem_bytes = Darray.elem_bytes da in
  let ranged_bytes s =
    List.fold_left
      (fun acc (iv : Interval.t) -> acc + (Interval.length iv * elem_bytes) + 8)
      0 (Interval.Set.to_list s)
  in
  let scans = ref [] in
  let runs = Array.make num_gpus Interval.Set.empty in
  for src = 0 to num_gpus - 1 do
    match r.Darray.dirty.(src) with
    | None -> ()
    | Some d ->
        scans :=
          ( src,
            da.Darray.name,
            scan_base_seconds +. (float_of_int (Dirty.total_chunks d) *. scan_per_chunk_seconds) )
          :: !scans;
        if Dirty.any_dirty d then runs.(src) <- Dirty.dirty_runs d
  done;
  let ship = Array.make_matrix num_gpus num_gpus Interval.Set.empty in
  for src = 0 to num_gpus - 1 do
    if not (Interval.Set.is_empty runs.(src)) then
      for dst = 0 to num_gpus - 1 do
        if dst <> src then
          ship.(src).(dst) <-
            (match window with
            | Cw_none -> Interval.Set.empty
            | Cw_all -> runs.(src)
            | Cw_windows ws -> Interval.Set.inter runs.(src) ws.(dst))
      done
  done;
  (* Each pair's ranged payload, computed once ([ship.(g).(g)] is empty,
     so the diagonal is 0). *)
  let ship_bytes = Array.map (Array.map ranged_bytes) ship in
  (* Staging as in the eager path, sized for the ranged payloads. *)
  let staging = ref [] in
  let send_bytes = Array.map (Array.fold_left max 0) ship_bytes in
  for g = 0 to num_gpus - 1 do
    if send_bytes.(g) > 0 then
      staging := (g, Memory.alloc_raw (mem g) `System send_bytes.(g)) :: !staging;
    let incoming = Array.fold_left (fun acc row -> max acc row.(g)) 0 ship_bytes in
    if incoming > 0 then staging := (g, Memory.alloc_raw (mem g) `System incoming) :: !staging
  done;
  let ops = ref [] in
  let shipped = ref 0 in
  let deferred = ref 0 in
  for src = 0 to num_gpus - 1 do
    let w = runs.(src) in
    if not (Interval.Set.is_empty w) then begin
      for dst = 0 to num_gpus - 1 do
        if dst <> src then r.Darray.valid.(dst) <- Interval.Set.diff r.Darray.valid.(dst) w
      done;
      r.Darray.valid.(src) <- Interval.Set.union r.Darray.valid.(src) w;
      let w_bytes = Interval.Set.total_length w * elem_bytes in
      (* Collective-eligible only when every peer receives the full dirty
         payload (same content everywhere — a true broadcast). Per-window
         ships differ per destination and must stay point-to-point. *)
      let is_broadcast =
        let ok = ref true in
        for dst = 0 to num_gpus - 1 do
          if dst <> src && not (Interval.Set.equal ship.(src).(dst) w) then ok := false
        done;
        !ok
      in
      let group = if is_broadcast then fresh_group () else -1 in
      for dst = 0 to num_gpus - 1 do
        if dst <> src then begin
          let s = ship.(src).(dst) in
          deferred := !deferred + w_bytes - (Interval.Set.total_length s * elem_bytes);
          if not (Interval.Set.is_empty s) then begin
            let bytes = ship_bytes.(src).(dst) in
            shipped := !shipped + bytes;
            ops :=
              {
                dir = Fabric.P2p (src, dst);
                bytes;
                tag = da.Darray.name ^ ":dirty";
                array = da.Darray.name;
                kind = Dirty_chunk;
                round = 0;
                group;
              }
              :: !ops;
            List.iter
              (fun seg -> Darray.copy_replica_seg da r ~src ~dst seg)
              (Interval.Set.to_list s);
            r.Darray.valid.(dst) <- Interval.Set.union r.Darray.valid.(dst) s
          end
        end
      done
    end
  done;
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
              if entries <> [] && owner <> src then begin
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
                (* The records stage in a system buffer on the owner until
                   the replay kernel consumes them. *)
                let mem =
                  (Mgacc_gpusim.Machine.device cfg.Rt_config.machine owner)
                    .Mgacc_gpusim.Device.memory
                in
                Memory.free mem (Memory.alloc_raw mem `System payload);
                replay_counts.(owner) <- replay_counts.(owner) + List.length entries;
                (* Functional replay into the owner's partition
                   (offset through the part, which may be a 2-D tile). *)
                let opart = dist.Darray.parts.(owner) in
                let off idx = Darray.offset_in_part dist.Darray.spec opart idx in
                (match da.Darray.elem with
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
                      entries)
              end
              else if entries <> [] && owner = src then begin
                (* A "miss" that is actually owned locally (conservative
                   check): apply in place, no traffic. *)
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
                (* Functional copy owner -> dst. *)
                let src_part = dist.Darray.parts.(owner) in
                let slo = src_part.Darray.window.Interval.lo in
                let dlo = part.Darray.window.Interval.lo in
                match da.Darray.elem with
                | Ast.Edouble ->
                    let s = Memory.float_data src_part.Darray.buf in
                    let d = Memory.float_data part.Darray.buf in
                    for i = seg.Interval.lo to seg.Interval.hi - 1 do
                      d.(i - dlo) <- s.(i - slo)
                    done
                | Ast.Eint ->
                    let s = Memory.int_data src_part.Darray.buf in
                    let d = Memory.int_data part.Darray.buf in
                    for i = seg.Interval.lo to seg.Interval.hi - 1 do
                      d.(i - dlo) <- s.(i - slo)
                    done
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
  let op_bytes xs = List.fold_left (fun acc (o : op) -> acc + o.bytes) 0 xs in
  List.iter
    (fun (c : Array_config.t) ->
      let name = c.Array_config.array in
      if c.Array_config.written && wrote name then begin
        let da = get_darray name in
        Darray.mark_device_written da;
        match Kernel_plan.placement_of plan name with
        | Array_config.Replicated ->
            if cfg.Rt_config.num_gpus > 1 then
              if lazy_mode then begin
                let x, s, shipped, deferred =
                  merge_replicated_lazy cfg da ~window:(next_window name) ~fresh_group
                in
                prepend_all ops x;
                prepend_all scans s;
                coh := (name, shipped, deferred) :: !coh
              end
              else begin
                let x, s = merge_replicated cfg da ~fresh_group in
                prepend_all ops x;
                prepend_all scans s;
                coh := (name, op_bytes x, 0) :: !coh
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
      let kind_of = function Reduction.Gather -> Red_gather | Reduction.Bcast -> Red_bcast in
      (* Every broadcast edge (star or binomial tree alike) carries the
         same combined result, so all of an array's Red_bcast ops form
         one collective group. Under planned collectives, when the result
         is actually broadcast (not deferred), the gathers join the same
         group: the pair is an allreduce the planner can lower to ring
         reduce-scatter/all-gather. Otherwise gathers pass through as
         point-to-point partial ships, exactly as before. *)
      let red_group = ref (-1) in
      let shared () =
        if !red_group < 0 then red_group := fresh_group ();
        !red_group
      in
      let group_of ~allreduce = function
        | Reduction.Gather -> if allreduce then shared () else -1
        | Reduction.Bcast -> shared ()
      in
      if lazy_mode then begin
        let ship = match next_window name with Cw_none -> `Defer | _ -> `Tree in
        let m = Reduction.merge_lazy cfg red da ~ship in
        let allreduce =
          Rt_config.planned_collectives cfg
          && List.exists (fun (_, role, _) -> role = Reduction.Bcast) m.Reduction.rounds
        in
        prepend_all ops
          (List.map
             (fun ((x : Darray.xfer), role, round) ->
               {
                 dir = x.Darray.dir;
                 bytes = x.Darray.bytes;
                 tag = x.Darray.tag;
                 array = name;
                 kind = kind_of role;
                 round;
                 group = group_of ~allreduce role;
               })
             m.Reduction.rounds);
        if not (Cost.is_zero m.Reduction.lazy_combine_cost) then
          combines :=
            { gpu = 0; array = name; cost = m.Reduction.lazy_combine_cost; label = name ^ ":combine" }
            :: !combines;
        coh :=
          ( name,
            List.fold_left (fun acc ((x : Darray.xfer), _, _) -> acc + x.Darray.bytes) 0
              m.Reduction.rounds,
            m.Reduction.deferred_bytes )
          :: !coh
      end
      else begin
        let m = Reduction.merge cfg red da in
        let allreduce =
          Rt_config.planned_collectives cfg
          && List.exists (fun (_, role) -> role = Reduction.Bcast) m.Reduction.xfers
        in
        prepend_all ops
          (List.map
             (fun ((x : Darray.xfer), role) ->
               {
                 dir = x.Darray.dir;
                 bytes = x.Darray.bytes;
                 tag = x.Darray.tag;
                 array = name;
                 kind = kind_of role;
                 round = 0;
                 group = group_of ~allreduce role;
               })
             m.Reduction.xfers);
        if not (Cost.is_zero m.Reduction.combine_cost) then
          combines :=
            { gpu = 0; array = name; cost = m.Reduction.combine_cost; label = name ^ ":combine" }
            :: !combines;
        coh :=
          ( name,
            List.fold_left
              (fun acc ((x : Darray.xfer), _) -> acc + x.Darray.bytes)
              0 m.Reduction.xfers,
            0 )
          :: !coh
      end)
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
