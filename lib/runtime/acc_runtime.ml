open Mgacc_minic
module Machine = Mgacc_gpusim.Machine
module Fabric = Mgacc_gpusim.Fabric
module Event = Mgacc_gpusim.Event
module Host_interp = Mgacc_exec.Host_interp
module View = Mgacc_exec.View
module Kernel_plan = Mgacc_translator.Kernel_plan
module Program_plan = Mgacc_translator.Program_plan
module Loop_info = Mgacc_analysis.Loop_info

let log_src = Logs.Src.create "mgacc.runtime" ~doc:"multi-GPU OpenACC runtime"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* All mutable execution state lives in the explicit [Session.t]; this
   module is the single-job driver over it. *)
open Session

type t = Session.t

let create cfg plans = Session.create cfg plans
let profiler = Session.profiler
let now = Session.now

(* ---------------- transfer charging ---------------- *)

type batch_kind = Cpu_gpu | Gpu_gpu

let fabric_of t = t.cfg.Rt_config.machine.Machine.fabric

(* Inter-node traffic of a batch: the share of its bytes that crosses
   the network wire (0 on single-node machines). *)
let count_wire_bytes t (reqs : Fabric.request list) =
  let fabric = fabric_of t in
  let bytes =
    List.fold_left
      (fun acc (r : Fabric.request) ->
        match r.Fabric.direction with
        | Fabric.P2p (a, b) when not (Fabric.same_node fabric a b) -> acc + r.Fabric.bytes
        | Fabric.P2p _ | Fabric.H2d _ | Fabric.D2h _ -> acc)
      0 reqs
  in
  if bytes > 0 then Profiler.add_wire_bytes t.profiler ~bytes

let count_collective_stats t (st : Collective.stats) =
  Profiler.add_collective t.profiler ~rings:st.Collective.rings
    ~hierarchies:st.Collective.hierarchies ~direct_groups:st.Collective.direct_groups
    ~segments:st.Collective.segments

let blame_of_kind = function
  | Cpu_gpu -> Mgacc_obs.Blame.Cpu_gpu
  | Gpu_gpu -> Mgacc_obs.Blame.Gpu_gpu

let charge_xfers ?(causes = fun (_ : Darray.xfer) -> []) t ~label ~kind ~ready
    (xfers : Darray.xfer list) =
  if xfers = [] then begin
    t.last_xfer_spans <- [];
    ready
  end
  else begin
    let reqs =
      List.map
        (fun (x : Darray.xfer) ->
          ( { Fabric.direction = x.Darray.dir; bytes = x.Darray.bytes; ready; tag = x.Darray.tag },
            causes x ))
        xfers
    in
    count_wire_bytes t (List.map fst reqs);
    let completions = Machine.run_transfers_spans t.cfg.Rt_config.machine ~label reqs in
    let finish =
      List.fold_left (fun acc ((c : Fabric.completion), _) -> Float.max acc c.Fabric.finish) ready
        completions
    in
    let bytes = List.fold_left (fun acc (x : Darray.xfer) -> acc + x.Darray.bytes) 0 xfers in
    (match kind with
    | Cpu_gpu -> Profiler.add_cpu_gpu t.profiler ~seconds:(finish -. ready) ~bytes
    | Gpu_gpu -> Profiler.add_gpu_gpu t.profiler ~seconds:(finish -. ready) ~bytes);
    let spans = List.filter_map snd completions in
    Mgacc_obs.Blame.charge t.ledger (blame_of_kind kind) ~label ~exposed:(finish -. ready)
      ~hidden:0.0 ~spans;
    t.last_xfer_spans <- spans;
    finish
  end

(* Overlap-mode accounting: each batch of activity spans [start, finish].
   Only the part past the current makespan cursor is exposed critical-path
   time and lands in its category; the part running in the shadow of
   earlier work is hidden. A gap between the cursor and [start] means the
   machine sat waiting on a host-side dependency (a dirty-bit scan) and is
   charged as overhead. The invariant "category times sum to the makespan"
   makes Fig. 8-style breakdowns read as a critical path. *)
let account t ~label ~spans ~kind ~bytes ~start ~finish =
  let gap = Float.max 0.0 (start -. t.horizon) in
  if gap > 0.0 then begin
    Profiler.add_overhead t.profiler ~seconds:gap;
    Mgacc_obs.Blame.charge t.ledger Mgacc_obs.Blame.Overhead ~label:("wait:" ^ label) ~exposed:gap
      ~hidden:0.0 ~spans:[]
  end;
  let exposed = Float.max 0.0 (finish -. Float.max t.horizon start) in
  let hidden = Float.max 0.0 (finish -. start -. exposed) in
  (match kind with
  | `Cpu_gpu -> Profiler.add_cpu_gpu t.profiler ~seconds:exposed ~bytes
  | `Gpu_gpu -> Profiler.add_gpu_gpu t.profiler ~seconds:exposed ~bytes
  | `Kernel -> Profiler.add_kernel t.profiler ~seconds:exposed);
  if hidden > 0.0 then Profiler.add_hidden t.profiler ~seconds:hidden;
  let cat =
    match kind with
    | `Cpu_gpu -> Mgacc_obs.Blame.Cpu_gpu
    | `Gpu_gpu -> Mgacc_obs.Blame.Gpu_gpu
    | `Kernel -> Mgacc_obs.Blame.Kernel
  in
  Mgacc_obs.Blame.charge t.ledger cat ~label ~exposed ~hidden ~spans;
  if finish > t.horizon then t.horizon <- finish

let run_batch_overlap t ~label ~kind (reqs : (Fabric.request * int list) list) =
  if reqs = [] then []
  else begin
    count_wire_bytes t (List.map fst reqs);
    let completions = Machine.run_transfers_spans t.cfg.Rt_config.machine ~label reqs in
    let start =
      List.fold_left
        (fun acc ((r : Fabric.request), _) -> Float.min acc r.Fabric.ready)
        infinity reqs
    in
    let finish =
      List.fold_left (fun acc ((c : Fabric.completion), _) -> Float.max acc c.Fabric.finish) start
        completions
    in
    let bytes = List.fold_left (fun acc ((r : Fabric.request), _) -> acc + r.Fabric.bytes) 0 reqs in
    account t ~label ~spans:(List.filter_map snd completions) ~kind ~bytes ~start ~finish;
    completions
  end

(* Overlap mode: advance a GPU's readiness timeline and remember which
   trace span did it, so downstream gated ops can cite their producer. *)
let record_ev t g fin sid =
  if fin > Event.gpu_ready t.events g then
    t.ev_spans.(g) <- (match sid with Some id -> id | None -> -1);
  Event.record t.events g fin

let ev_cause t g = if t.ev_spans.(g) >= 0 then [ t.ev_spans.(g) ] else []

(* Deferred intervals pulled on demand carry a ":pull" tag; count their
   bytes into the per-array coherence counters. *)
let count_pulls t (xfers : Darray.xfer list) =
  List.iter
    (fun (x : Darray.xfer) ->
      match String.rindex_opt x.Darray.tag ':' with
      | Some i when String.sub x.Darray.tag i (String.length x.Darray.tag - i) = ":pull" ->
          Profiler.add_coh_pulled t.profiler ~array:(String.sub x.Darray.tag 0 i)
            ~bytes:x.Darray.bytes
      | _ -> ())
    xfers

(* Host-driven transfers (copyin/copyout/update) are host-visible sync
   points: in overlap mode they first drain everything in flight, then run
   fully exposed; in barrier mode this is exactly the original charge.
   Under lazy coherence a flush list may lead with on-demand P2p pulls
   (replica 0 turning coherent); those ride the interconnect before the
   host copy and are charged as GPU-GPU traffic. Eager mode never
   produces them, so its charge sequence is unchanged. *)
let charge_host_xfers t ~label xfers =
  if xfers = [] then ()
  else begin
    let pulls, host =
      List.partition
        (fun (x : Darray.xfer) ->
          match x.Darray.dir with Fabric.P2p _ -> true | Fabric.H2d _ | Fabric.D2h _ -> false)
        xfers
    in
    count_pulls t pulls;
    if not t.cfg.Rt_config.overlap then begin
      let ready = charge_xfers t ~label ~kind:Gpu_gpu ~ready:t.clock pulls in
      t.clock <- charge_xfers t ~label ~kind:Cpu_gpu ~ready host
    end
    else begin
      let ready = Float.max t.clock t.horizon in
      let ready = charge_xfers t ~label ~kind:Gpu_gpu ~ready pulls in
      let pull_spans = t.last_xfer_spans in
      let finish = charge_xfers t ~label ~kind:Cpu_gpu ~ready host in
      t.horizon <- Float.max t.horizon finish;
      let barrier_span =
        (* the last span of the drain is what every GPU now waits behind *)
        match List.fold_left (fun acc id -> max acc id) (-1) (t.last_xfer_spans @ pull_spans) with
        | -1 -> None
        | id -> Some id
      in
      for g = 0 to t.cfg.Rt_config.num_gpus - 1 do
        record_ev t g finish barrier_span
      done;
      Event.record_host t.events finish;
      t.clock <- finish
    end
  end

(* ---------------- present table ---------------- *)

let get_darray t env name =
  let host = Host_interp.find_array env name in
  match Hashtbl.find_opt t.darrays name with
  | Some da when da.Darray.host == host -> da
  | Some da ->
      (* The host array was re-declared (new scope/iteration): the old
         device copy belongs to a dead array. Drop it and start fresh. *)
      let xfers = Darray.release t.cfg da in
      charge_host_xfers t ~label:(name ^ ":stale-release") xfers;
      let da = Darray.create t.cfg ~name ~host in
      Hashtbl.replace t.darrays name da;
      da
  | None ->
      let da = Darray.create t.cfg ~name ~host in
      Hashtbl.replace t.darrays name da;
      da

(* ---------------- data regions ---------------- *)

let subarrays_of_clauses clauses =
  List.concat_map
    (function
      | Ast.Cdata (kind, subs) -> List.map (fun s -> (kind, s)) subs
      | Ast.Creduction _ | Ast.Cgang _ | Ast.Cworker _ | Ast.Cvector _ | Ast.Cindependent
      | Ast.Clocalaccess _ | Ast.Cif _ ->
          [])
    clauses

let on_data_enter t env clauses =
  List.iter
    (fun ((kind : Ast.data_kind), (sub : Ast.subarray)) ->
      let da = get_darray t env sub.Ast.sub_array in
      da.Darray.region_depth <- da.Darray.region_depth + 1;
      (* Warm-pool mode keeps device storage alive across regions, but
         the host may have written between them — reload on re-entry so
         the device never computes on stale values. *)
      if
        t.cfg.Rt_config.keep_resident
        && da.Darray.region_depth = 1
        && da.Darray.state <> Darray.Unallocated
      then begin
        let xfers = Darray.load_from_host t.cfg da in
        charge_host_xfers t ~label:(sub.Ast.sub_array ^ ":re-enter") xfers
      end;
      match kind with
      | Ast.Copy | Ast.Copyout -> da.Darray.needs_copyout <- true
      | Ast.Copyin | Ast.Create -> ()
      | Ast.Present ->
          if da.Darray.state = Darray.Unallocated && da.Darray.region_depth <= 1 then
            Loc.error Loc.dummy "present(%s): array is not on the device" sub.Ast.sub_array)
    (subarrays_of_clauses clauses)

let on_data_exit t env clauses =
  List.iter
    (fun ((kind : Ast.data_kind), (sub : Ast.subarray)) ->
      let da = get_darray t env sub.Ast.sub_array in
      (* "exit data copyout(a)" requests the copy at the exit point even if
         the matching enter only did copyin. *)
      (match kind with
      | Ast.Copy | Ast.Copyout -> da.Darray.needs_copyout <- true
      | Ast.Copyin | Ast.Create | Ast.Present -> ());
      da.Darray.region_depth <- da.Darray.region_depth - 1;
      if da.Darray.region_depth <= 0 then
        if t.cfg.Rt_config.keep_resident then begin
          (* Warm-pool mode: satisfy the copyout contract but keep the
             device storage allocated for a possible next region; the
             fleet's admission controller evicts it under pressure. *)
          let xfers = if da.Darray.needs_copyout then Darray.flush_to_host t.cfg da else [] in
          da.Darray.needs_copyout <- false;
          charge_host_xfers t ~label:(sub.Ast.sub_array ^ ":copyout") xfers
        end
        else begin
          let xfers = Darray.release t.cfg da in
          charge_host_xfers t ~label:(sub.Ast.sub_array ^ ":copyout") xfers;
          Hashtbl.remove t.darrays sub.Ast.sub_array
        end)
    (subarrays_of_clauses clauses)

let on_update_host t env subs =
  List.iter
    (fun (sub : Ast.subarray) ->
      let da = get_darray t env sub.Ast.sub_array in
      let xfers = Darray.flush_to_host t.cfg da in
      charge_host_xfers t ~label:(sub.Ast.sub_array ^ ":update-host") xfers)
    subs

let on_update_device t env subs =
  List.iter
    (fun (sub : Ast.subarray) ->
      let da = get_darray t env sub.Ast.sub_array in
      let xfers = Darray.load_from_host t.cfg da in
      charge_host_xfers t ~label:(sub.Ast.sub_array ^ ":update-device") xfers)
    subs

(* ---------------- parallel loops ---------------- *)

let param_types_of env plan =
  List.map
    (fun name ->
      match Host_interp.find_array_opt env name with
      | Some view -> (name, Ast.Tarray view.View.elem)
      | None -> (
          match Host_interp.get_scalar env name with
          | Host_interp.Vint _ -> (name, Ast.Tint)
          | Host_interp.Vfloat _ -> (name, Ast.Tdouble)))
    plan.Kernel_plan.free_vars

let compiled_for t env plan =
  let loc = plan.Kernel_plan.loop.Loop_info.loop_loc in
  match Hashtbl.find_opt t.compiled loc with
  | Some c -> c
  | None ->
      let c = Launch.compile_kernel plan ~param_types:(param_types_of env plan) in
      Hashtbl.replace t.compiled loc c;
      c

(* An [if(cond)] clause that evaluates to zero sends the loop to the host:
   device-fresh data used by the loop flushes out first and the host's
   results push back afterwards, both charged as CPU-GPU traffic — the
   textbook cost of bouncing between memories. *)
let run_on_host t env (loop : Loop_info.t) plan =
  Log.debug (fun m -> m "loop %d: if-clause false, executing on the host" loop.Loop_info.loop_id);
  let arrays =
    List.filter
      (fun name -> Host_interp.find_array_opt env name <> None)
      plan.Kernel_plan.free_vars
  in
  List.iter
    (fun name ->
      let da = get_darray t env name in
      let xfers = Darray.flush_to_host t.cfg da in
      charge_host_xfers t ~label:(name ^ ":if-flush") xfers)
    arrays;
  Host_interp.run_loop_sequentially env loop;
  List.iter
    (fun name ->
      let da = get_darray t env name in
      let xfers = Darray.load_from_host t.cfg da in
      charge_host_xfers t ~label:(name ^ ":if-reload") xfers)
    arrays

let offload_condition env clauses =
  List.for_all
    (function Ast.Cif cond -> Host_interp.eval_float env cond <> 0.0 | _ -> true)
    clauses

(* Everything both launch paths need, computed in the exact order the
   original runtime did (the loader may itself charge a stale-release). *)
type launch_setup = {
  lo : int;
  hi : int;
  iterations : int;
  thread_multiplier : int;
  ranges : Task_map.range array;
  tiling : (int * int * int) option;
      (** [(stride, pr, pc)] when this launch runs 2-D decomposed *)
  col_bounds : (int * int) array option;
      (** per-GPU owned column block of a 2-D launch *)
  arrays : string list;
  prep : Data_loader.prepared;
  t0 : float;  (** clock at region entry, before the loader ran *)
}

(* 2-D launch gate. The plan's static eligibility ([tile2d]) must be met
   by the runtime shape: more than one GPU arranged into a non-trivial
   grid, a row width above 1, every distributed array's length a whole
   number of rows, and no scheduler weights in play (a weighted 1-D split
   and a 2-D grid answer the same question differently — the pinned 1-D
   path wins whenever the scheduler has an opinion). *)
let tiling_of t env plan ~num_gpus ~weighted =
  match plan.Kernel_plan.tile2d with
  | Some t2 when num_gpus > 1 && not weighted -> (
      let stride = Host_interp.eval_int env t2.Mgacc_analysis.Tile2d.stride in
      let pr, pc = Mgacc_analysis.Tile2d.grid_of ~num_gpus in
      if stride <= 1 || pc < 2 then None
      else
        let rows_ok =
          List.for_all
            (fun (c : Mgacc_analysis.Array_config.t) ->
              match Kernel_plan.placement_of plan c.Mgacc_analysis.Array_config.array with
              | Mgacc_analysis.Array_config.Distributed ->
                  let da = get_darray t env c.Mgacc_analysis.Array_config.array in
                  da.Darray.length mod stride = 0 && da.Darray.length / stride >= 1
              | Mgacc_analysis.Array_config.Replicated -> true)
            plan.Kernel_plan.configs
        in
        if rows_ok then Some (stride, pr, pc) else None)
  | _ -> None

let prepare_launch t env (loop : Loop_info.t) plan =
  let lo = Host_interp.eval_int env loop.Loop_info.lower in
  let hi = Host_interp.eval_int env loop.Loop_info.upper in
  let num_gpus = t.cfg.Rt_config.num_gpus in
  Log.debug (fun m ->
      m "loop %d at %s: %d iterations on %d GPU(s)" loop.Loop_info.loop_id
        (Loc.to_string loop.Loop_info.loop_loc) (max 0 (hi - lo)) num_gpus);
  let iterations = max 0 (hi - lo) in
  let thread_multiplier = Kernel_plan.thread_multiplier plan in
  let weights =
    let workload =
      match Kernel_plan.schedule_hint plan with
      | `Uniform -> Mgacc_sched.Scheduler.Uniform
      | `Irregular -> Mgacc_sched.Scheduler.Irregular
    in
    Mgacc_sched.Scheduler.weights_for t.scheduler ~loop_id:loop.Loop_info.loop_id ~iterations
      ~threads_per_iter:thread_multiplier
      ~iter_cost:(Kernel_plan.static_iter_cost plan)
      ~workload
  in
  let tiling = tiling_of t env plan ~num_gpus ~weighted:(weights <> None) in
  let ranges =
    match (weights, tiling) with
    | Some weights, _ -> Task_map.split_weighted ~lower:lo ~upper:(max lo hi) ~weights
    | None, Some (_, pr, pc) ->
        (* Row ranges, duplicated across each row's [pc] column blocks:
           GPU g = (row_block * pc + col_block) iterates its row share
           with the kernel's column restriction selecting its columns. *)
        let row_split = Task_map.split ~lower:lo ~upper:(max lo hi) ~parts:pr in
        Array.init num_gpus (fun g -> row_split.(g / pc))
    | None, None -> Task_map.split ~lower:lo ~upper:(max lo hi) ~parts:num_gpus
  in
  let col_bounds =
    match tiling with
    | Some (stride, _, pc) ->
        let cs = Task_map.split ~lower:0 ~upper:stride ~parts:pc in
        Some
          (Array.init num_gpus (fun g ->
               (cs.(g mod pc).Task_map.start_, cs.(g mod pc).Task_map.stop_)))
    | None -> None
  in
  (match tiling with
  | Some (stride, pr, pc) ->
      Log.debug (fun m ->
          m "loop %d: 2-D launch on a %dx%d grid (row width %d)" loop.Loop_info.loop_id pr pc
            stride)
  | None -> ());
  Hashtbl.replace t.seen_ranges loop.Loop_info.loop_loc ranges;
  let t0 = t.clock in
  (* Phase 1: the data loader makes device copies valid (CPU-GPU). *)
  let arrays =
    List.filter
      (fun name -> Host_interp.find_array_opt env name <> None)
      plan.Kernel_plan.free_vars
  in
  let prep =
    Data_loader.prepare t.cfg
      ?grid:(Option.map (fun (_, pr, pc) -> (pr, pc)) tiling)
      plan ~ranges ~eval_int:(Host_interp.eval_int env) ~get_darray:(get_darray t env) ~arrays
  in
  count_pulls t prep.Data_loader.xfers;
  Log.debug (fun m ->
      m "loop %d: loader moved %d bytes in %d transfer(s)" loop.Loop_info.loop_id
        (List.fold_left
           (fun acc (x : Darray.xfer) -> acc + x.Darray.bytes)
           0 prep.Data_loader.xfers)
        (List.length prep.Data_loader.xfers));
  { lo; hi; iterations; thread_multiplier; ranges; tiling; col_bounds; arrays; prep; t0 }

let bytes_per_iter_of t env arrays =
  List.fold_left
    (fun acc name ->
      let da = get_darray t env name in
      match da.Darray.state with
      | Darray.Distributed d -> acc + (d.Darray.spec.Darray.stride * Darray.elem_bytes da)
      | Darray.Unallocated | Darray.Replicated _ -> acc)
    0 arrays

(* Resolve the translator's static lookahead into a concrete consumer
   window for the communication manager: the next reader's affine
   subscript form evaluated over that loop's last-observed per-GPU
   iteration split. Iterative applications re-run their loops with
   stable bounds, so the memoized split predicts the true windows; a
   reader that never launched yet falls back to ship-everything. Wrong
   predictions cost nothing in correctness — unshipped intervals stay
   stale and are pulled on demand. *)
let next_window_for t plan name =
  if not (Rt_config.lazy_coherence t.cfg) then Comm_manager.Cw_all
  else
    let after = plan.Kernel_plan.loop.Loop_info.loop_loc in
    match Program_plan.next_read t.plans ~after ~array:name with
    | Program_plan.No_future_read -> Comm_manager.Cw_none
    | Program_plan.Reads_next { loop_loc; window } -> (
        match window with
        | Program_plan.Whole_array -> Comm_manager.Cw_all
        | Program_plan.Affine_window { coeff; cmin; cmax } -> (
            match Hashtbl.find_opt t.seen_ranges loop_loc with
            | None -> Comm_manager.Cw_all
            | Some ranges ->
                Comm_manager.Cw_windows
                  (Array.map
                     (fun (rg : Task_map.range) ->
                       if rg.Task_map.stop_ <= rg.Task_map.start_ then
                         Mgacc_util.Interval.Set.empty
                       else begin
                         let lo_it = rg.Task_map.start_ and hi_it = rg.Task_map.stop_ - 1 in
                         let lo, hi =
                           if coeff >= 0 then ((coeff * lo_it) + cmin, (coeff * hi_it) + cmax + 1)
                           else ((coeff * hi_it) + cmin, (coeff * lo_it) + cmax + 1)
                         in
                         Mgacc_util.Interval.Set.of_interval
                           (Mgacc_util.Interval.make (max 0 lo) hi)
                       end)
                     ranges)))

let count_coh t (r : Comm_manager.result) =
  List.iter
    (fun (a, shipped, deferred) -> Profiler.add_coh t.profiler ~array:a ~shipped ~deferred)
    r.Comm_manager.coh

(* Fusion-mode layout transposition: the first launch whose plan reads a
   transposed array materializes the packed copy — a small repack kernel
   per GPU streaming the original layout in and the new one out (~16
   bytes per element). Later launches read the array coalesced at no
   further cost; [t.repacked] makes the charge one-time per session. *)
let relayout_cost elems =
  let c = Mgacc_gpusim.Cost.zero () in
  c.Mgacc_gpusim.Cost.coalesced_bytes <- 16 * elems;
  c

let pending_relayouts t plan =
  List.filter (fun name -> not (Hashtbl.mem t.repacked name)) (Kernel_plan.relayout_arrays plan)

(* Barrier path: repacks run right after the loads, and the launch's
   kernels wait behind them (they read the packed copies). Returns the
   new kernel-ready time and the repack spans as the kernels' causes. *)
let charge_relayouts_barrier t env plan ~ready ~causes =
  List.fold_left
    (fun (ready, causes) name ->
      Hashtbl.replace t.repacked name ();
      Profiler.add_relayout t.profiler;
      let elems = (get_darray t env name).Darray.length in
      let label = "relayout:" ^ name in
      let fin = ref ready and spans = ref [] in
      for g = 0 to t.cfg.Rt_config.num_gpus - 1 do
        let _, finish, sid =
          Machine.launch_kernel_span ~causes t.cfg.Rt_config.machine ~dev:g ~ready ~threads:elems
            ~label (relayout_cost elems)
        in
        fin := Float.max !fin finish;
        spans := sid :: !spans
      done;
      Profiler.add_kernel t.profiler ~seconds:(!fin -. ready);
      Mgacc_obs.Blame.charge t.ledger Mgacc_obs.Blame.Kernel ~label ~exposed:(!fin -. ready)
        ~hidden:0.0 ~spans:!spans;
      (!fin, !spans))
    (ready, causes) (pending_relayouts t plan)

(* Overlap path: each GPU's repack is gated on that device's own
   readiness and advances its event timeline, so only kernels on that
   GPU wait for their local copy. *)
let charge_relayouts_overlap t env plan =
  List.iter
    (fun name ->
      Hashtbl.replace t.repacked name ();
      Profiler.add_relayout t.profiler;
      let elems = (get_darray t env name).Darray.length in
      let label = "relayout:" ^ name in
      let bstart = ref infinity and bfinish = ref 0.0 and spans = ref [] in
      for g = 0 to t.cfg.Rt_config.num_gpus - 1 do
        let ready = Float.max t.clock (Event.gpu_ready t.events g) in
        let start, finish, sid =
          Machine.launch_kernel_span ~causes:(ev_cause t g) t.cfg.Rt_config.machine ~dev:g ~ready
            ~threads:elems ~label (relayout_cost elems)
        in
        record_ev t g finish (Some sid);
        bstart := Float.min !bstart start;
        bfinish := Float.max !bfinish finish;
        spans := sid :: !spans
      done;
      account t ~label ~spans:!spans ~kind:`Kernel ~bytes:0 ~start:!bstart ~finish:!bfinish)
    (pending_relayouts t plan)

let rec on_parallel_loop t env loop =
  Profiler.incr_loops t.profiler;
  let plan = Program_plan.plan_for t.plans loop in
  if not (offload_condition env loop.Loop_info.clauses) then run_on_host t env loop plan
  else begin
    (* One fused launch stands in for all its constituent loops; count
       the launches it saved (k-1 for a group of k) each execution. *)
    (match Program_plan.fused_members t.plans loop with
    | _ :: _ :: _ as members ->
        Profiler.add_fused_kernels t.profiler ~count:(List.length members - 1)
    | _ -> ());
    if t.cfg.Rt_config.overlap then on_parallel_loop_gpu_overlap t env loop plan
    else on_parallel_loop_gpu t env loop plan
  end

(* The original bulk-synchronous launch: every phase is a barrier across
   all GPUs. Kept bit-for-bit — [--overlap off] must reproduce the seed's
   simulated timings exactly. *)
and on_parallel_loop_gpu t env loop plan =
  let s = prepare_launch t env loop plan in
  let num_gpus = t.cfg.Rt_config.num_gpus in
  let reductions = s.prep.Data_loader.reductions in
  (* A scheduler re-split moves deltas directly GPU-to-GPU; those peer
     transfers are inter-GPU traffic, not part of the host load. Under the
     equal-split policy the peer list is always empty and the charge
     sequence is exactly the original one. *)
  let repart_xfers, host_xfers =
    List.partition
      (fun (x : Darray.xfer) ->
        match x.Darray.dir with Fabric.P2p _ -> true | Fabric.H2d _ | Fabric.D2h _ -> false)
      s.prep.Data_loader.xfers
  in
  let t1 = charge_xfers t ~label:"load" ~kind:Cpu_gpu ~ready:s.t0 host_xfers in
  let load_spans = t.last_xfer_spans in
  let t1 = charge_xfers t ~label:"rebalance" ~kind:Gpu_gpu ~ready:t1 repart_xfers in
  let load_spans = load_spans @ t.last_xfer_spans in
  let t1, load_spans = charge_relayouts_barrier t env plan ~ready:t1 ~causes:load_spans in
  (* Phase 2: kernels on all GPUs concurrently (KERNELS). *)
  let compiled = compiled_for t env plan in
  let runs, scalar_partials =
    Launch.run_on_gpus ?col_bounds:s.col_bounds plan compiled ~ranges:s.ranges
      ~get_scalar:(Host_interp.get_scalar env)
      ~get_darray:(get_darray t env)
      ~get_reduction:(fun name -> List.assoc_opt name reductions)
  in
  let kspan = Array.make num_gpus (-1) in
  let run_times =
    List.map
      (fun (run : Launch.gpu_run) ->
        assert (run.Launch.iterations > 0);
        Profiler.incr_kernel_launches t.profiler;
        let _, finish, sid =
          Machine.launch_kernel_span ~causes:load_spans t.cfg.Rt_config.machine
            ~dev:run.Launch.gpu ~ready:t1
            ~threads:(run.Launch.iterations * s.thread_multiplier)
            ~label:(Program_plan.kernel_label t.plans loop)
            run.Launch.cost
        in
        kspan.(run.Launch.gpu) <- sid;
        (run.Launch.gpu, run.Launch.iterations, finish -. t1))
      runs
  in
  let kernel_spans = Array.to_list kspan |> List.filter (fun id -> id >= 0) in
  let t2 = List.fold_left (fun acc (_, _, sec) -> Float.max acc (t1 +. sec)) t1 run_times in
  Profiler.add_kernel t.profiler ~seconds:(t2 -. t1);
  Mgacc_obs.Blame.charge t.ledger Mgacc_obs.Blame.Kernel ~label:"kernels" ~exposed:(t2 -. t1)
    ~hidden:0.0 ~spans:kernel_spans;
  (* Feed the scheduler: per-GPU rates and the launch's imbalance. *)
  (match run_times with
  | _ :: _ :: _ ->
      let slow = List.fold_left (fun acc (_, _, sec) -> Float.max acc sec) 0.0 run_times in
      let fast = List.fold_left (fun acc (_, _, sec) -> Float.min acc sec) infinity run_times in
      if slow > 0.0 then Profiler.add_imbalance t.profiler ~ratio:((slow -. fast) /. slow)
  | [] | [ _ ] -> ());
  let iters_per_gpu = Array.make num_gpus 0 and secs_per_gpu = Array.make num_gpus 0.0 in
  List.iter
    (fun (g, n, sec) ->
      iters_per_gpu.(g) <- n;
      secs_per_gpu.(g) <- sec)
    run_times;
  let bytes_per_iter = bytes_per_iter_of t env s.arrays in
  (* A 2-D launch duplicates row ranges across column blocks; feeding
     those to the scheduler would teach it weights that disable tiling on
     the next launch (and flip-flop after). The 2-D grid is static. *)
  if
    s.tiling = None
    && Mgacc_sched.Scheduler.observe t.scheduler ~loop_id:loop.Loop_info.loop_id
         ~iterations:iters_per_gpu ~seconds:secs_per_gpu ~total_iterations:s.iterations
         ~bytes_per_iter
  then Profiler.incr_rebalances t.profiler;
  (* Phase 3: inter-GPU reconciliation (GPU-GPU). *)
  let wrote _ = s.hi > s.lo in
  let rec_result =
    Comm_manager.reconcile t.cfg plan ~get_darray:(get_darray t env) ~reductions ~wrote
      ~next_window:(next_window_for t plan)
  in
  count_coh t rec_result;
  let rec_xfers = Comm_manager.xfers_of rec_result in
  let t2', scan_span =
    Machine.overhead_span ~causes:kernel_spans t.cfg.Rt_config.machine ~ready:t2
      ~seconds:rec_result.Comm_manager.scan_seconds ~label:"dirty-scan"
  in
  Profiler.add_overhead t.profiler ~seconds:(t2' -. t2);
  Mgacc_obs.Blame.charge t.ledger Mgacc_obs.Blame.Overhead ~label:"dirty-scan"
    ~exposed:(t2' -. t2) ~hidden:0.0 ~spans:(Option.to_list scan_span);
  (* Reconciliation transfers are gated (by the barrier) on the writer's
     kernel and the dirty scan; cite both so the trace DAG shows it. *)
  let barrier_cause src =
    (if src >= 0 && src < num_gpus && kspan.(src) >= 0 then [ kspan.(src) ] else [])
    @ Option.to_list scan_span
  in
  let xfer_causes (x : Darray.xfer) =
    match x.Darray.dir with
    | Fabric.P2p (a, _) -> barrier_cause a
    | Fabric.H2d g | Fabric.D2h g -> barrier_cause g
  in
  Log.debug (fun m ->
      m "loop %d: reconciliation ships %d bytes in %d transfer(s)" loop.Loop_info.loop_id
        (List.fold_left (fun acc (x : Darray.xfer) -> acc + x.Darray.bytes) 0 rec_xfers)
        (List.length rec_xfers));
  let t3 =
    if not (Rt_config.planned_collectives t.cfg) then
      charge_xfers ~causes:xfer_causes t ~label:"comm" ~kind:Gpu_gpu ~ready:t2' rec_xfers
    else begin
      (* Collective planning: broadcast groups among the ops reshape into
         ring / hierarchical / segmented schedules; the whole plan charges
         as one GPU-GPU phase spanning its wavefront batches. *)
      let cplan, cstats =
        Collective.plan ~cfg:t.cfg ~fabric:(fabric_of t) rec_result.Comm_manager.ops
      in
      count_collective_stats t cstats;
      if Array.length cplan = 0 then t2'
      else begin
        let bytes = ref 0 in
        let comm_spans = ref [] in
        let fin =
          Collective.execute ~plan:cplan
            ~base_causes:(fun (it : Collective.item) ->
              match it.Collective.dir with
              | Fabric.P2p (a, _) -> barrier_cause a
              | Fabric.H2d g | Fabric.D2h g -> barrier_cause g)
            ~base_ready:(fun _ -> t2')
            ~run:(fun reqs ->
              bytes :=
                List.fold_left (fun a ((r : Fabric.request), _) -> a + r.Fabric.bytes) !bytes reqs;
              count_wire_bytes t (List.map fst reqs);
              Machine.run_transfers_spans t.cfg.Rt_config.machine ~label:"comm" reqs)
            ~on_complete:(fun _ _ sid ->
              match sid with Some id -> comm_spans := id :: !comm_spans | None -> ())
            ()
        in
        Profiler.add_gpu_gpu t.profiler ~seconds:(Float.max 0.0 (fin -. t2')) ~bytes:!bytes;
        Mgacc_obs.Blame.charge t.ledger Mgacc_obs.Blame.Gpu_gpu ~label:"comm"
          ~exposed:(Float.max 0.0 (fin -. t2'))
          ~hidden:0.0 ~spans:(List.rev !comm_spans);
        Float.max t2' fin
      end
    end
  in
  let replay_spans = ref [] in
  let t4 =
    List.fold_left
      (fun acc (gpu, cost, label) ->
        let _, finish, sid =
          Machine.launch_kernel_span ~causes:(barrier_cause gpu) t.cfg.Rt_config.machine ~dev:gpu
            ~ready:t3 ~threads:1024 ~label cost
        in
        replay_spans := sid :: !replay_spans;
        Float.max acc finish)
      t3
      (Comm_manager.gpu_kernel_costs_of rec_result)
  in
  Profiler.add_gpu_gpu t.profiler ~seconds:(t4 -. t3) ~bytes:0;
  Mgacc_obs.Blame.charge t.ledger Mgacc_obs.Blame.Gpu_gpu ~label:"replay" ~exposed:(t4 -. t3)
    ~hidden:0.0 ~spans:(List.rev !replay_spans);
  (* Phase 4: fold scalar-reduction partials into the host scalars. *)
  let t5 =
    if scalar_partials = [] then t4
    else begin
      let reqs =
        List.concat_map
          (fun (run : Launch.gpu_run) ->
            List.map
              (fun (name, _, _) ->
                ( {
                    Fabric.direction = Fabric.D2h run.Launch.gpu;
                    bytes = 8;
                    ready = t4;
                    tag = name ^ ":scalar-red";
                  },
                  barrier_cause run.Launch.gpu ))
              scalar_partials)
          runs
      in
      let completions =
        Machine.run_transfers_spans t.cfg.Rt_config.machine ~label:"scalar-red" reqs
      in
      let finish =
        List.fold_left (fun acc ((c : Fabric.completion), _) -> Float.max acc c.Fabric.finish) t4
          completions
      in
      Profiler.add_cpu_gpu t.profiler ~seconds:(finish -. t4) ~bytes:(8 * List.length reqs);
      Mgacc_obs.Blame.charge t.ledger Mgacc_obs.Blame.Cpu_gpu ~label:"scalar-red"
        ~exposed:(finish -. t4) ~hidden:0.0 ~spans:(List.filter_map snd completions);
      fold_scalar_partials env scalar_partials;
      finish
    end
  in
  t.clock <- t5;
  Profiler.record_memory_peaks t.profiler t.cfg.Rt_config.machine ~num_gpus

(* The overlap engine (docs/OVERLAP.md): instead of barriers between the
   load / kernel / reconcile / replay phases, every operation is gated on
   the completion events it actually depends on. Per-GPU event timelines
   persist across launches, so a launch's reconciliation drains while the
   host runs ahead and the next launch's fast GPUs start early. *)
and on_parallel_loop_gpu_overlap t env loop plan =
  let s = prepare_launch t env loop plan in
  let num_gpus = t.cfg.Rt_config.num_gpus in
  let machine = t.cfg.Rt_config.machine in
  let reductions = s.prep.Data_loader.reductions in
  Profiler.add_prefetch_hits t.profiler ~count:(List.length s.prep.Data_loader.reused);
  (* Phase 1: loads, each gated on its own endpoints — a GPU whose copy is
     still streaming in does not hold back the others. *)
  let ready_for (x : Darray.xfer) =
    match x.Darray.dir with
    | Fabric.H2d g | Fabric.D2h g -> Float.max t.clock (Event.gpu_ready t.events g)
    | Fabric.P2p (a, b) ->
        Float.max t.clock
          (Float.max (Event.gpu_ready t.events a) (Event.gpu_ready t.events b))
  in
  let mk_req (x : Darray.xfer) =
    let causes =
      match x.Darray.dir with
      | Fabric.H2d g | Fabric.D2h g -> ev_cause t g
      | Fabric.P2p (a, b) -> List.sort_uniq compare (ev_cause t a @ ev_cause t b)
    in
    ( { Fabric.direction = x.Darray.dir; bytes = x.Darray.bytes; ready = ready_for x; tag = x.Darray.tag },
      causes )
  in
  let record_endpoints ((c : Fabric.completion), sid) =
    match c.Fabric.req.Fabric.direction with
    | Fabric.H2d g | Fabric.D2h g -> record_ev t g c.Fabric.finish sid
    | Fabric.P2p (a, b) ->
        record_ev t a c.Fabric.finish sid;
        record_ev t b c.Fabric.finish sid
  in
  let repart_xfers, host_xfers =
    List.partition
      (fun (x : Darray.xfer) ->
        match x.Darray.dir with Fabric.P2p _ -> true | Fabric.H2d _ | Fabric.D2h _ -> false)
      s.prep.Data_loader.xfers
  in
  List.iter record_endpoints
    (run_batch_overlap t ~label:"load" ~kind:`Cpu_gpu (List.map mk_req host_xfers));
  List.iter record_endpoints
    (run_batch_overlap t ~label:"rebalance" ~kind:`Gpu_gpu (List.map mk_req repart_xfers));
  charge_relayouts_overlap t env plan;
  (* Phase 2: kernels, each starting as soon as its own device is ready. *)
  let compiled = compiled_for t env plan in
  let runs, scalar_partials =
    Launch.run_on_gpus ?col_bounds:s.col_bounds plan compiled ~ranges:s.ranges
      ~get_scalar:(Host_interp.get_scalar env)
      ~get_darray:(get_darray t env)
      ~get_reduction:(fun name -> List.assoc_opt name reductions)
  in
  let kfin = Array.init num_gpus (fun g -> Float.max t.clock (Event.gpu_ready t.events g)) in
  let kstart = Array.copy kfin in
  let kspan = Array.make num_gpus (-1) in
  let spans =
    List.map
      (fun (run : Launch.gpu_run) ->
        assert (run.Launch.iterations > 0);
        Profiler.incr_kernel_launches t.profiler;
        let g = run.Launch.gpu in
        let start, finish, sid =
          Machine.launch_kernel_span ~causes:(ev_cause t g) machine ~dev:g
            ~ready:(Float.max t.clock (Event.gpu_ready t.events g))
            ~threads:(run.Launch.iterations * s.thread_multiplier)
            ~label:(Program_plan.kernel_label t.plans loop)
            run.Launch.cost
        in
        kstart.(g) <- start;
        kfin.(g) <- finish;
        kspan.(g) <- sid;
        record_ev t g finish (Some sid);
        (run, start, finish))
      runs
  in
  (match spans with
  | [] -> ()
  | _ ->
      let bstart = List.fold_left (fun acc (_, st, _) -> Float.min acc st) infinity spans in
      let bfinish = List.fold_left (fun acc (_, _, fi) -> Float.max acc fi) 0.0 spans in
      let kids = Array.to_list kspan |> List.filter (fun id -> id >= 0) in
      account t ~label:"kernels" ~spans:kids ~kind:`Kernel ~bytes:0 ~start:bstart ~finish:bfinish);
  (* Feed the scheduler from events: per-GPU busy spans, not a shared t1. *)
  (match spans with
  | _ :: _ :: _ ->
      let slow = List.fold_left (fun acc (_, st, fi) -> Float.max acc (fi -. st)) 0.0 spans in
      let fast =
        List.fold_left (fun acc (_, st, fi) -> Float.min acc (fi -. st)) infinity spans
      in
      if slow > 0.0 then Profiler.add_imbalance t.profiler ~ratio:((slow -. fast) /. slow)
  | [] | [ _ ] -> ());
  let iters_per_gpu = Array.make num_gpus 0 in
  List.iter (fun (run, _, _) -> iters_per_gpu.(run.Launch.gpu) <- run.Launch.iterations) spans;
  let bytes_per_iter = bytes_per_iter_of t env s.arrays in
  (* Like the barrier path: duplicated 2-D row ranges must not train the
     scheduler's weights (they would disable tiling on the next launch). *)
  if
    s.tiling = None
    && Mgacc_sched.Scheduler.observe_events t.scheduler ~loop_id:loop.Loop_info.loop_id
         ~iterations:iters_per_gpu ~starts:kstart ~finishes:kfin ~total_iterations:s.iterations
         ~bytes_per_iter
  then Profiler.incr_rebalances t.profiler;
  (* Phase 3: reconciliation as a dependency DAG. Wave 1 carries every op
     whose inputs exist at its source's kernel finish: dirty chunks (after
     that array's scan on the writing GPU), miss shipments, reduction
     gathers, and halos of arrays with no pending replay. Replay and
     combine kernels run gated on the arrival of exactly their inputs.
     Wave 2 carries what those kernels produce: halos of replayed arrays
     and reduction broadcasts. *)
  let wrote _ = s.hi > s.lo in
  let r =
    Comm_manager.reconcile t.cfg plan ~get_darray:(get_darray t env) ~reductions ~wrote
      ~next_window:(next_window_for t plan)
  in
  count_coh t r;
  let scan_tbl = Hashtbl.create 8 in
  List.iter (fun (g, a, sec) -> Hashtbl.replace scan_tbl (g, a) sec) r.Comm_manager.scans;
  let scan_of g a = Option.value ~default:0.0 (Hashtbl.find_opt scan_tbl (g, a)) in
  let miss_arrival = Hashtbl.create 8 in
  let gather_arrival = Hashtbl.create 8 in
  let replay_fin = Hashtbl.create 8 in
  let combine_fin = Hashtbl.create 8 in
  let bcast_arrival = Hashtbl.create 8 in
  (* Span mirrors of the arrival tables: the trace span id that set each
     arrival time, so dependents can cite their actual producer. *)
  let miss_span = Hashtbl.create 8 in
  let gather_span = Hashtbl.create 8 in
  let replay_span = Hashtbl.create 8 in
  let combine_span = Hashtbl.create 8 in
  let bcast_span = Hashtbl.create 8 in
  let bump2 tbl stbl key v sid =
    match Hashtbl.find_opt tbl key with
    | Some x when x >= v -> ()
    | _ ->
        Hashtbl.replace tbl key v;
        (match sid with Some id -> Hashtbl.replace stbl key id | None -> Hashtbl.remove stbl key)
  in
  let span_find stbl key =
    match Hashtbl.find_opt stbl key with Some id -> [ id ] | None -> []
  in
  let kcause g = if kspan.(g) >= 0 then [ kspan.(g) ] else [] in
  let has_replay a =
    List.exists (fun (k : Comm_manager.gpu_kernel) -> k.Comm_manager.array = a) r.Comm_manager.replays
  in
  let wave1, wave2 =
    List.partition
      (fun (op : Comm_manager.op) ->
        match op.Comm_manager.kind with
        | Comm_manager.Red_bcast -> false
        | Comm_manager.Halo_segment -> not (has_replay op.Comm_manager.array)
        | Comm_manager.Dirty_chunk | Comm_manager.Miss_ship | Comm_manager.Red_gather -> true)
      r.Comm_manager.ops
  in
  let op_req ~wave (op : Comm_manager.op) =
    let src, dst =
      match op.Comm_manager.dir with
      | Fabric.P2p (a, b) -> (a, b)
      | Fabric.H2d g | Fabric.D2h g -> (g, g)
    in
    let a = op.Comm_manager.array in
    let ready =
      match op.Comm_manager.kind with
      | Comm_manager.Dirty_chunk ->
          (* Staged at the source, so only the producer gates it: its own
             kernel finish plus this array's dirty-bit scan. *)
          kfin.(src) +. scan_of src a
      | Comm_manager.Miss_ship | Comm_manager.Red_gather -> kfin.(src)
      | Comm_manager.Red_bcast ->
          let base =
            match Hashtbl.find_opt combine_fin a with
            | Some f -> f
            | None -> (
                match Hashtbl.find_opt gather_arrival a with Some f -> f | None -> kfin.(src))
          in
          (* A binomial-tree edge (lazy coherence, round > 0) additionally
             waits for its source to have received the result in the
             previous round; star broadcasts never populate this table
             before their single batch runs, so eager timing is
             untouched. *)
          let parent = Option.value ~default:0.0 (Hashtbl.find_opt bcast_arrival (a, src)) in
          Float.max (Float.max base kfin.(src)) parent
      | Comm_manager.Halo_segment ->
          (* No staging: the owner's live partition is read while the
             consumer's halo region is overwritten, so both ends gate. *)
          let base = Float.max kfin.(src) kfin.(dst) in
          if wave = 2 then
            Float.max base (Option.value ~default:0.0 (Hashtbl.find_opt replay_fin (src, a)))
          else base
    in
    { Fabric.direction = op.Comm_manager.dir; bytes = op.Comm_manager.bytes; ready; tag = op.Comm_manager.tag }
  in
  (* Span-level mirror of [op_req]'s readiness: the producer spans whose
     finish times the op's ready instant was computed from. *)
  let op_causes ~wave (op : Comm_manager.op) =
    let src, dst =
      match op.Comm_manager.dir with
      | Fabric.P2p (a, b) -> (a, b)
      | Fabric.H2d g | Fabric.D2h g -> (g, g)
    in
    let a = op.Comm_manager.array in
    let causes =
      match op.Comm_manager.kind with
      | Comm_manager.Dirty_chunk | Comm_manager.Miss_ship | Comm_manager.Red_gather -> kcause src
      | Comm_manager.Red_bcast ->
          let base =
            match span_find combine_span a with
            | [] -> ( match span_find gather_span a with [] -> kcause src | l -> l)
            | l -> l
          in
          base @ kcause src @ span_find bcast_span (a, src)
      | Comm_manager.Halo_segment ->
          let base = kcause src @ kcause dst in
          if wave = 2 then base @ span_find replay_span (src, a) else base
    in
    List.sort_uniq compare causes
  in
  let handle_completion (op : Comm_manager.op) ((c : Fabric.completion), sid) =
    let fin = c.Fabric.finish in
    match (op.Comm_manager.kind, op.Comm_manager.dir) with
    | Comm_manager.Dirty_chunk, Fabric.P2p (_, dst) -> record_ev t dst fin sid
    | Comm_manager.Miss_ship, Fabric.P2p (_, dst) ->
        bump2 miss_arrival miss_span (dst, op.Comm_manager.array) fin sid
    | Comm_manager.Red_gather, Fabric.P2p _ ->
        bump2 gather_arrival gather_span op.Comm_manager.array fin sid
    | Comm_manager.Red_bcast, Fabric.P2p (_, dst) ->
        bump2 bcast_arrival bcast_span (op.Comm_manager.array, dst) fin sid;
        record_ev t dst fin sid
    | Comm_manager.Halo_segment, Fabric.P2p (src, dst) ->
        record_ev t src fin sid;
        record_ev t dst fin sid
    | _, (Fabric.H2d g | Fabric.D2h g) -> record_ev t g fin sid
  in
  (* Base readiness of a planned item: the op_req logic, applied to the
     item's actual path. First hops gate like their logical op; forwarded
     hops are gated by their explicit plan dependencies (a forwarding GPU
     ships a staged payload, not its own kernel output), with the
     forwarder's kernel finish kept for broadcast results — mirroring the
     direct tree, where an edge waits on its source GPU's kernel. *)
  let planned_ready ~wave (it : Collective.item) =
    let op = it.Collective.op in
    let isrc, idst =
      match it.Collective.dir with
      | Fabric.P2p (a, b) -> (a, b)
      | Fabric.H2d g | Fabric.D2h g -> (g, g)
    in
    let osrc =
      match op.Comm_manager.dir with
      | Fabric.P2p (a, _) -> a
      | Fabric.H2d g | Fabric.D2h g -> g
    in
    let a = op.Comm_manager.array in
    match op.Comm_manager.kind with
    | Comm_manager.Dirty_chunk ->
        if isrc = osrc then kfin.(isrc) +. scan_of isrc a else t.clock
    | Comm_manager.Miss_ship | Comm_manager.Red_gather -> kfin.(isrc)
    | Comm_manager.Red_bcast ->
        let base =
          match Hashtbl.find_opt combine_fin a with
          | Some f -> f
          | None -> (
              match Hashtbl.find_opt gather_arrival a with Some f -> f | None -> kfin.(osrc))
        in
        Float.max base kfin.(isrc)
    | Comm_manager.Halo_segment ->
        let base = Float.max kfin.(isrc) kfin.(idst) in
        if wave = 2 then
          Float.max base (Option.value ~default:0.0 (Hashtbl.find_opt replay_fin (isrc, a)))
        else base
  in
  (* Span-level mirror of [planned_ready], per hop of the item's path. *)
  let planned_causes ~wave (it : Collective.item) =
    let op = it.Collective.op in
    let isrc, idst =
      match it.Collective.dir with
      | Fabric.P2p (a, b) -> (a, b)
      | Fabric.H2d g | Fabric.D2h g -> (g, g)
    in
    let osrc =
      match op.Comm_manager.dir with
      | Fabric.P2p (a, _) -> a
      | Fabric.H2d g | Fabric.D2h g -> g
    in
    let a = op.Comm_manager.array in
    let causes =
      match op.Comm_manager.kind with
      | Comm_manager.Dirty_chunk -> if isrc = osrc then kcause isrc else []
      | Comm_manager.Miss_ship | Comm_manager.Red_gather -> kcause isrc
      | Comm_manager.Red_bcast ->
          let base =
            match span_find combine_span a with
            | [] -> ( match span_find gather_span a with [] -> kcause osrc | l -> l)
            | l -> l
          in
          base @ kcause isrc
      | Comm_manager.Halo_segment ->
          let base = kcause isrc @ kcause idst in
          if wave = 2 then base @ span_find replay_span (isrc, a) else base
    in
    List.sort_uniq compare causes
  in
  let run_planned ~wave ops =
    let cplan, cstats = Collective.plan ~cfg:t.cfg ~fabric:(fabric_of t) ops in
    count_collective_stats t cstats;
    ignore
      (Collective.execute ~plan:cplan ~base_causes:(planned_causes ~wave)
         ~base_ready:(planned_ready ~wave)
         ~run:(run_batch_overlap t ~label:"comm" ~kind:`Gpu_gpu)
         ~on_complete:(fun (it : Collective.item) c sid ->
           handle_completion it.Collective.op (c, sid))
         ())
  in
  let planned = Rt_config.planned_collectives t.cfg in
  if planned then run_planned ~wave:1 wave1
  else
    List.iter2 handle_completion wave1
      (run_batch_overlap t ~label:"comm" ~kind:`Gpu_gpu
         (List.map (fun op -> (op_req ~wave:1 op, op_causes ~wave:1 op)) wave1));
  (* Replay and combine kernels, each gated on its own inputs. *)
  let small_spans = ref [] in
  List.iter
    (fun (k : Comm_manager.gpu_kernel) ->
      let g = k.Comm_manager.gpu in
      let ready =
        Float.max kfin.(g)
          (Option.value ~default:0.0 (Hashtbl.find_opt miss_arrival (g, k.Comm_manager.array)))
      in
      let causes =
        List.sort_uniq compare (kcause g @ span_find miss_span (g, k.Comm_manager.array))
      in
      let start, finish, sid =
        Machine.launch_kernel_span ~causes machine ~dev:g ~ready ~threads:1024
          ~label:k.Comm_manager.label k.Comm_manager.cost
      in
      Hashtbl.replace replay_fin (g, k.Comm_manager.array) finish;
      Hashtbl.replace replay_span (g, k.Comm_manager.array) sid;
      record_ev t g finish (Some sid);
      small_spans := (start, finish, sid) :: !small_spans)
    r.Comm_manager.replays;
  List.iter
    (fun (k : Comm_manager.gpu_kernel) ->
      let g = k.Comm_manager.gpu in
      let ready =
        Float.max kfin.(g)
          (Option.value ~default:0.0 (Hashtbl.find_opt gather_arrival k.Comm_manager.array))
      in
      let causes =
        List.sort_uniq compare (kcause g @ span_find gather_span k.Comm_manager.array)
      in
      let start, finish, sid =
        Machine.launch_kernel_span ~causes machine ~dev:g ~ready ~threads:1024
          ~label:k.Comm_manager.label k.Comm_manager.cost
      in
      Hashtbl.replace combine_fin k.Comm_manager.array finish;
      Hashtbl.replace combine_span k.Comm_manager.array sid;
      record_ev t g finish (Some sid);
      small_spans := (start, finish, sid) :: !small_spans)
    r.Comm_manager.combines;
  (match !small_spans with
  | [] -> ()
  | spans ->
      let st = List.fold_left (fun acc (a, _, _) -> Float.min acc a) infinity spans in
      let fi = List.fold_left (fun acc (_, b, _) -> Float.max acc b) 0.0 spans in
      let ids = List.rev_map (fun (_, _, id) -> id) spans in
      account t ~label:"replay" ~spans:ids ~kind:`Gpu_gpu ~bytes:0 ~start:st ~finish:fi);
  (* Wave 2 runs in broadcast-round order: ops of round [r+1] (binomial
     tree edges) only become ready once round [r] completions have been
     recorded. Eager mode puts every op in round 0, reproducing the
     original single batch exactly. *)
  if planned then run_planned ~wave:2 wave2
  else begin
    let wave2_rounds =
      List.sort_uniq compare (List.map (fun (op : Comm_manager.op) -> op.Comm_manager.round) wave2)
    in
    List.iter
      (fun round ->
        let ops =
          List.filter (fun (op : Comm_manager.op) -> op.Comm_manager.round = round) wave2
        in
        List.iter2 handle_completion ops
          (run_batch_overlap t ~label:"comm" ~kind:`Gpu_gpu
             (List.map (fun op -> (op_req ~wave:2 op, op_causes ~wave:2 op)) ops)))
      wave2_rounds
  end;
  (* Phase 4: scalar-reduction partials. Only these block the host — a
     launch with no scalar result returns control immediately, which is
     where the cross-launch overlap comes from. *)
  if scalar_partials <> [] then begin
    let reqs =
      List.concat_map
        (fun (run : Launch.gpu_run) ->
          List.map
            (fun (name, _, _) ->
              ( {
                  Fabric.direction = Fabric.D2h run.Launch.gpu;
                  bytes = 8;
                  ready = kfin.(run.Launch.gpu);
                  tag = name ^ ":scalar-red";
                },
                kcause run.Launch.gpu ))
            scalar_partials)
        runs
    in
    let completions = run_batch_overlap t ~label:"scalar-red" ~kind:`Cpu_gpu reqs in
    let finish =
      List.fold_left
        (fun acc ((c : Fabric.completion), _) -> Float.max acc c.Fabric.finish)
        t.clock completions
    in
    fold_scalar_partials env scalar_partials;
    Event.record_host t.events finish;
    t.clock <- Float.max t.clock finish
  end;
  Profiler.record_memory_peaks t.profiler t.cfg.Rt_config.machine ~num_gpus

and fold_scalar_partials env scalar_partials =
  List.iter
    (fun (name, op, partials) ->
      let current = Host_interp.get_scalar env name in
      let result =
        List.fold_left
          (fun acc v ->
            match (acc, v) with
            | Host_interp.Vfloat a, Host_interp.Vfloat b ->
                Host_interp.Vfloat (View.apply_redop_f op a b)
            | Host_interp.Vint a, Host_interp.Vint b -> Host_interp.Vint (View.apply_redop_i op a b)
            | Host_interp.Vfloat a, Host_interp.Vint b ->
                Host_interp.Vfloat (View.apply_redop_f op a (float_of_int b))
            | Host_interp.Vint a, Host_interp.Vfloat b ->
                Host_interp.Vfloat (View.apply_redop_f op (float_of_int a) b))
          current partials
      in
      Host_interp.set_scalar env name result)
    scalar_partials

(* ---------------- wiring ---------------- *)

let hooks t =
  {
    Host_interp.on_parallel_loop = (fun env loop -> on_parallel_loop t env loop);
    on_data_enter = (fun env clauses -> on_data_enter t env clauses);
    on_data_exit = (fun env clauses -> on_data_exit t env clauses);

    on_update_host = (fun env subs -> on_update_host t env subs);
    on_update_device = (fun env subs -> on_update_device t env subs);
  }

let finish ?(keep_resident = false) t =
  if keep_resident then
    (* Warm-pool finish: flush what must reach the host, keep everything
       allocated. The session's present table survives as the fleet's
       warm entry — the admission controller spills it under pressure. *)
    Hashtbl.iter
      (fun name da ->
        if da.Darray.needs_copyout then begin
          let xfers = Darray.flush_to_host t.cfg da in
          da.Darray.needs_copyout <- false;
          charge_host_xfers t ~label:(name ^ ":final") xfers
        end)
      t.darrays
  else begin
    Hashtbl.iter
      (fun name da ->
        (* Arrays that never sat in a data region flush their results back so
           host code can read them after the program. *)
        da.Darray.needs_copyout <- da.Darray.needs_copyout || da.Darray.device_fresh;
        let xfers = Darray.release t.cfg da in
        charge_host_xfers t ~label:(name ^ ":final") xfers)
      t.darrays;
    Hashtbl.reset t.darrays
  end;
  (* In overlap mode the program ends when the last in-flight op lands. *)
  if t.cfg.Rt_config.overlap then t.clock <- Float.max t.clock t.horizon;
  Profiler.record_memory_peaks t.profiler t.cfg.Rt_config.machine ~num_gpus:t.cfg.Rt_config.num_gpus

let execute t program =
  (* Run the plans' own program: when fusion rewrote the source, the host
     must interpret the rewritten loops the plans were built from (with
     the pass off this is physically the program that was passed in). *)
  ignore (program : Mgacc_minic.Ast.program);
  let env = Host_interp.run_program ~hooks:(hooks t) (Program_plan.program t.plans) in
  finish ~keep_resident:t.cfg.Rt_config.keep_resident t;
  env

let blame t =
  Mgacc_obs.Blame.summarize t.ledger ~trace:t.cfg.Rt_config.machine.Machine.trace

let report ?variant t =
  let variant =
    match variant with
    | Some v -> v
    | None -> Printf.sprintf "proposal(%d)" t.cfg.Rt_config.num_gpus
  in
  let r =
    Report.of_profiler t.profiler ~machine:t.cfg.Rt_config.machine.Machine.name ~variant
      ~num_gpus:t.cfg.Rt_config.num_gpus
  in
  Report.with_queue r ~seconds:(Session.queue_seconds t)

let run ?config ?variant ?(with_blame = false) ~machine program =
  let cfg = match config with Some c -> c | None -> Rt_config.make machine in
  (* A reused machine carries timeline availability from earlier runs;
     reset so back-to-back runs in one process match fresh-process runs
     (shared-machine contention is the fleet's job, not [run]'s). *)
  Machine.reset cfg.Rt_config.machine;
  let plans = Program_plan.build ~options:cfg.Rt_config.translator program in
  let t = create cfg plans in
  (* Interpret the plans' program, not the input: fusion may have
     rewritten it (identical when the pass is off). *)
  let env = Host_interp.run_program ~hooks:(hooks t) (Program_plan.program plans) in
  finish t;
  let variant =
    match variant with
    | Some v -> v
    | None -> Printf.sprintf "proposal(%d)" cfg.Rt_config.num_gpus
  in
  let r =
    Report.of_profiler t.profiler ~machine:machine.Machine.name ~variant
      ~num_gpus:cfg.Rt_config.num_gpus
  in
  let r = if with_blame then Report.with_blame r (blame t) else r in
  (env, r)
