(* Test oracles for the communication manager's merges.

   The lazy replicated merge as it was before each writer's work was
   shared across destinations. For every (writer, destination) pair it
   intersects the writer's runs with the destination's window, sums the
   pair's ranged payload, diffs the runs out of the destination's
   validity, compares the pair's ship set structurally against the runs
   and unions the shipped part back. [reconcile] returns what
   [Comm_manager.reconcile] returns for one written replicated array
   under lazy coherence, and leaves the darray (valid sets, replica
   buffers, dirty bits, staging peaks) as it does.

   The eager replicated and reduction merges as they were before eager
   coherence became the lazy protocol with a whole-array window: see
   [reconcile_eager] below. *)

open Mgacc_runtime
module Interval = Mgacc_util.Interval
module Memory = Mgacc_gpusim.Memory
module Fabric = Mgacc_gpusim.Fabric
module Cost = Mgacc_gpusim.Cost
module View = Mgacc_exec.View
module Ast = Mgacc_minic.Ast

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
            Darray.copy_replica_runs da r ~src ~dsts:[ dst ] s;
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

(* ---------------- the eager merges ---------------- *)

(* Every writer's dirty chunks (payload plus their first-level bits) go to
   every other replica, one collective group per writer. Valid sets are
   not touched: eager replicas are always fully valid. *)
let merge_eager cfg (da : Darray.t) ~fresh_group =
  let r = Darray.replica_of da in
  let num_gpus = cfg.Rt_config.num_gpus in
  let mem g = (Mgacc_gpusim.Machine.device cfg.Rt_config.machine g).Mgacc_gpusim.Device.memory in
  let ops = ref [] in
  let scans = ref [] in
  let staging = ref [] in
  let send_bytes = Array.make num_gpus 0 in
  for src = 0 to num_gpus - 1 do
    match r.Darray.dirty.(src) with
    | None -> ()
    | Some d -> if Dirty.any_dirty d then send_bytes.(src) <- Dirty.transfer_bytes d
  done;
  for g = 0 to num_gpus - 1 do
    if send_bytes.(g) > 0 then
      staging := (g, Memory.alloc_raw (mem g) `System send_bytes.(g)) :: !staging;
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
          let group = fresh_group () in
          let tag = da.Darray.name ^ ":dirty" in
          for dst = 0 to num_gpus - 1 do
            if dst <> src then begin
              ops :=
                {
                  Comm_manager.dir = Fabric.P2p (src, dst);
                  bytes;
                  tag;
                  array = da.Darray.name;
                  kind = Comm_manager.Dirty_chunk;
                  round = 0;
                  group;
                }
                :: !ops;
              match da.Darray.elem with
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
                    (Interval.Set.to_list runs)
            end
          done
        end
  done;
  List.iter (fun (g, buf) -> Memory.free (mem g) buf) !staging;
  Array.iter (function Some d -> Dirty.clear d | None -> ()) r.Darray.dirty;
  (List.rev !ops, List.rev !scans)

(* An array reduction's inputs: its target, its operator and each GPU's
   (element, value) contributions in order. A GPU without any is
   untouched. On a double target a value [v] contributes [v / 4]. *)
type reduction = { target : Darray.t; op : Ast.redop; contribs : (int * int) list array }

let float_value v = float_of_int v /. 4.0

type partial = Pf of float array | Pi of int array

(* The oracle's partials, with the same system-memory storage
   [Reduction.allocate] accounts. *)
let partials cfg red =
  let da = red.target in
  let mem g = (Mgacc_gpusim.Machine.device cfg.Rt_config.machine g).Mgacc_gpusim.Device.memory in
  let bufs =
    Array.init cfg.Rt_config.num_gpus (fun g ->
        Memory.alloc_raw (mem g) `System (da.Darray.length * Darray.elem_bytes da))
  in
  let parts =
    Array.map
      (fun cs ->
        match da.Darray.elem with
        | Ast.Edouble ->
            let p = Array.make da.Darray.length (View.redop_identity_f red.op) in
            List.iter (fun (i, v) -> p.(i) <- View.apply_redop_f red.op p.(i) (float_value v)) cs;
            Pf p
        | Ast.Eint ->
            let p = Array.make da.Darray.length (View.redop_identity_i red.op) in
            List.iter (fun (i, v) -> p.(i) <- View.apply_redop_i red.op p.(i) v) cs;
            Pi p)
      red.contribs
  in
  (bufs, parts)

(* Fold every partial into every replica (they stay consistent), gather
   each contributing partial to GPU 0 and broadcast the result from GPU 0
   to every peer. Frees the partials. *)
let reduction_eager cfg red (bufs, parts) =
  let da = red.target in
  let r = Darray.replica_of da in
  let g_count = cfg.Rt_config.num_gpus in
  let length = da.Darray.length in
  let width = Darray.elem_bytes da in
  let bytes = length * width in
  (match da.Darray.elem with
  | Ast.Edouble ->
      let idf = View.redop_identity_f red.op in
      Array.iter
        (fun buf ->
          let d = Memory.float_data buf in
          Array.iter
            (function
              | Pf p ->
                  for i = 0 to length - 1 do
                    if p.(i) <> idf then d.(i) <- View.apply_redop_f red.op d.(i) p.(i)
                  done
              | Pi _ -> assert false)
            parts)
        r.Darray.bufs
  | Ast.Eint ->
      let idi = View.redop_identity_i red.op in
      Array.iter
        (fun buf ->
          let d = Memory.int_data buf in
          Array.iter
            (function
              | Pi p ->
                  for i = 0 to length - 1 do
                    if p.(i) <> idi then d.(i) <- View.apply_redop_i red.op d.(i) p.(i)
                  done
              | Pf _ -> assert false)
            parts)
        r.Darray.bufs);
  let touched g = red.contribs.(g) <> [] in
  let xfers = ref [] in
  for g = 1 to g_count - 1 do
    if touched g then
      xfers :=
        ({ Darray.dir = Fabric.P2p (g, 0); bytes; tag = da.Darray.name ^ ":red-gather" }, `Gather)
        :: !xfers
  done;
  for g = 1 to g_count - 1 do
    xfers :=
      ({ Darray.dir = Fabric.P2p (0, g); bytes; tag = da.Darray.name ^ ":red-bcast" }, `Bcast)
      :: !xfers
  done;
  let contributors = ref 1 in
  Array.iteri (fun g _ -> if touched g then incr contributors) red.contribs;
  let combine_cost = Cost.zero () in
  combine_cost.Cost.flops <- length * !contributors;
  combine_cost.Cost.coalesced_bytes <- length * width * (!contributors + 1);
  let mem g = (Mgacc_gpusim.Machine.device cfg.Rt_config.machine g).Mgacc_gpusim.Device.memory in
  Array.iteri (fun g buf -> Memory.free (mem g) buf) bufs;
  Darray.mark_device_written da;
  (List.rev !xfers, combine_cost)

(* What [Comm_manager.reconcile] returned under eager coherence for the
   written replicated array [da] and the reduction [red]. Under planned
   collectives the gathers join the broadcast's group (an allreduce). *)
let reconcile_eager cfg (da : Darray.t) red : Comm_manager.result =
  let parts = partials cfg red in
  Darray.mark_device_written da;
  let gid = ref 0 in
  let fresh_group () =
    incr gid;
    !gid
  in
  let ops, scans = merge_eager cfg da ~fresh_group in
  let xfers, combine_cost = reduction_eager cfg red parts in
  let name = red.target.Darray.name in
  let allreduce =
    Rt_config.planned_collectives cfg && List.exists (fun (_, role) -> role = `Bcast) xfers
  in
  let red_group = ref (-1) in
  let shared () =
    if !red_group < 0 then red_group := fresh_group ();
    !red_group
  in
  let red_ops =
    List.map
      (fun ((x : Darray.xfer), role) ->
        {
          Comm_manager.dir = x.Darray.dir;
          bytes = x.Darray.bytes;
          tag = x.Darray.tag;
          array = name;
          kind =
            (match role with
            | `Gather -> Comm_manager.Red_gather
            | `Bcast -> Comm_manager.Red_bcast);
          round = 0;
          group =
            (match role with `Gather -> if allreduce then shared () else -1 | `Bcast -> shared ());
        })
      xfers
  in
  let op_bytes = List.fold_left (fun acc (o : Comm_manager.op) -> acc + o.Comm_manager.bytes) 0 in
  {
    Comm_manager.ops = ops @ red_ops;
    replays = [];
    combines =
      (if Cost.is_zero combine_cost then []
       else
         [
           { Comm_manager.gpu = 0; array = name; cost = combine_cost; label = name ^ ":combine" };
         ]);
    scans;
    scan_seconds = List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 scans;
    coh = [ (da.Darray.name, op_bytes ops, 0); (name, op_bytes red_ops, 0) ];
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

(* The reduction target [h] of [n] elements, replicated without dirty
   tracking; every replica holds [3 * i + 1] at [i] (eager replicas
   agree). *)
let reduction_target cfg ~ints ~n =
  let name = "h" in
  let host =
    if ints then Mgacc.View.of_int_array ~name (Array.make n 0)
    else Mgacc.View.of_float_array ~name (Array.make n 0.0)
  in
  let da = Darray.create cfg ~name ~host in
  ignore (Darray.ensure_replicated cfg da ~dirty_tracking:false);
  Array.iter
    (fun buf ->
      for i = 0 to n - 1 do
        if ints then (Memory.int_data buf).(i) <- (3 * i) + 1
        else (Memory.float_data buf).(i) <- float_of_int ((3 * i) + 1)
      done)
    (Darray.replica_of da).Darray.bufs;
  da

(* [Comm_manager.reconcile] of the written array [da] and the reduction
   [red], its partials built by [Reduction.reduce_f]/[reduce_i]. Eager
   coherence never consults the next reader's window, so [Cw_none] here
   must change nothing. *)
let reconcile_eager_runtime cfg (da : Darray.t) red =
  let t = Reduction.allocate cfg red.target red.op in
  Array.iteri
    (fun gpu cs ->
      List.iter
        (fun (i, v) ->
          match red.target.Darray.elem with
          | Ast.Edouble -> Reduction.reduce_f t ~gpu i [| float_value v |] 0
          | Ast.Eint -> Reduction.reduce_i t ~gpu i v)
        cs)
    red.contribs;
  let name = red.target.Darray.name in
  Comm_manager.reconcile cfg (Lazy.force plan)
    ~get_darray:(fun n -> if n = name then red.target else da)
    ~reductions:[ (name, t) ]
    ~wrote:(fun n -> n = da.Darray.name)
    ~next_window:(fun _ -> Comm_manager.Cw_none)
