(* The lazy replicated merge as it was before each writer's work was
   shared across destinations, kept only as a test oracle. For every
   (writer, destination) pair it intersects the writer's runs with the
   destination's window, sums the pair's ranged payload, diffs the runs
   out of the destination's validity, compares the pair's ship set
   structurally against the runs and unions the shipped part back.
   [reconcile] returns what [Comm_manager.reconcile] returns for one
   written replicated array under lazy coherence, and leaves the darray
   (valid sets, replica buffers, dirty bits, staging peaks) as it does. *)

open Mgacc_runtime
module Interval = Mgacc_util.Interval
module Memory = Mgacc_gpusim.Memory
module Fabric = Mgacc_gpusim.Fabric

(* The host-side scan cost, as [Comm_manager] charges it. *)
let scan_base_seconds = 2e-6
let scan_per_chunk_seconds = 20e-9

let merge cfg (da : Darray.t) ~(window : Comm_manager.consumer_window) ~fresh_group =
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
            | Comm_manager.Cw_none -> Interval.Set.empty
            | Comm_manager.Cw_all -> runs.(src)
            | Comm_manager.Cw_windows ws -> Interval.Set.inter runs.(src) ws.(dst))
      done
  done;
  let ship_bytes = Array.map (Array.map ranged_bytes) ship in
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
                Comm_manager.dir = Fabric.P2p (src, dst);
                bytes;
                tag = da.Darray.name ^ ":dirty";
                array = da.Darray.name;
                kind = Comm_manager.Dirty_chunk;
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

let reconcile cfg (da : Darray.t) ~window : Comm_manager.result =
  Darray.mark_device_written da;
  let gid = ref 0 in
  let fresh_group () =
    incr gid;
    !gid
  in
  let ops, scans, shipped, deferred = merge cfg da ~window ~fresh_group in
  {
    Comm_manager.ops;
    replays = [];
    combines = [];
    scans;
    scan_seconds = List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 scans;
    coh = [ (da.Darray.name, shipped, deferred) ];
  }

(* ---------------- a replicated array to merge ---------------- *)

(* One loop writing [a] (double) and [b] (int) through an index array,
   so both are replicated and written. *)
let plan =
  lazy
    (let program =
       Mgacc.parse_string ~name:"merge.c"
         {|void main() { int n = 8; double a[n]; int b[n]; int idx[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { a[idx[i]] = 1.0; b[idx[i]] = 2; } }|}
     in
     let plan = List.hd (Mgacc.Program_plan.all_plans (Mgacc.compile program)) in
     List.iter
       (fun name ->
         if Mgacc_translator.Kernel_plan.placement_of plan name <> Mgacc.Array_config.Replicated
         then failwith ("Ref_merge.plan: " ^ name ^ " is not replicated"))
       [ "a"; "b" ];
     plan)

(* [a] (or [b] when [ints]) of [n] elements, replicated with dirty
   tracking; replica [g] holds [(g + 1) * 1000 + i] at [i]. *)
let replicated cfg ~ints ~n =
  let name = if ints then "b" else "a" in
  let host =
    if ints then Mgacc.View.of_int_array ~name (Array.make n 0)
    else Mgacc.View.of_float_array ~name (Array.make n 0.0)
  in
  let da = Darray.create cfg ~name ~host in
  ignore (Darray.ensure_replicated cfg da ~dirty_tracking:true);
  let r = Darray.replica_of da in
  Array.iteri
    (fun g buf ->
      for i = 0 to n - 1 do
        let v = ((g + 1) * 1000) + i in
        if ints then (Memory.int_data buf).(i) <- v
        else (Memory.float_data buf).(i) <- float_of_int v
      done)
    r.Darray.bufs;
  da

(* [Comm_manager.reconcile] of the one written array [da]. *)
let reconcile_runtime cfg (da : Darray.t) ~window =
  Comm_manager.reconcile cfg (Lazy.force plan)
    ~get_darray:(fun _ -> da)
    ~reductions:[]
    ~wrote:(fun name -> name = da.Darray.name)
    ~next_window:(fun _ -> window)
