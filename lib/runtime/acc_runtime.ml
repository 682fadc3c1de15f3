open Mgacc_minic
module Machine = Mgacc_gpusim.Machine
module Fabric = Mgacc_gpusim.Fabric
module Event = Mgacc_gpusim.Event
module Blame = Mgacc_obs.Blame
module Wall = Mgacc_obs.Wall
module Int_buf = Mgacc_util.Int_buf
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

let create ?pool cfg plans = Session.create ?pool cfg plans

(* ---------------- the gate ---------------- *)

(* How a launch orders its operations (docs/OVERLAP.md), chosen once per
   launch. [Barrier]: every phase is ready at the join of the previous
   one and is charged as one epoch. [Overlap]: every op is ready at the
   join of exactly the events it depends on, and each batch is charged
   against the makespan horizon. *)
type gate = Barrier | Overlap

let gate_of t = if t.cfg.Rt_config.overlap then Overlap else Barrier
let fabric_of t = t.cfg.Rt_config.machine.Machine.fabric

let endpoints = function
  | Fabric.H2d g | Fabric.D2h g -> (g, g)
  | Fabric.P2p (a, b) -> (a, b)

let is_peer (x : Darray.xfer) =
  match x.Darray.dir with Fabric.P2p _ -> true | Fabric.H2d _ | Fabric.D2h _ -> false

(* Inter-node traffic of a batch: the share of its bytes that crosses
   the network wire (0 on single-node machines). *)
let count_wire_bytes t (b : Fabric.batch) =
  let fabric = fabric_of t in
  let bytes = ref 0 in
  for i = 0 to b.Fabric.len - 1 do
    match b.Fabric.dirs.(i) with
    | Fabric.P2p (x, y) when not (Fabric.same_node fabric x y) ->
        bytes := !bytes + b.Fabric.bytes.(i)
    | Fabric.P2p _ | Fabric.H2d _ | Fabric.D2h _ -> ()
  done;
  if !bytes > 0 then Profiler.add_wire_bytes t.profiler ~bytes:!bytes

(* Whether a tag ends in ":pull", spelled out: [String.ends_with]
   builds a closure per call, and every transfer of a flush asks. *)
let is_pull tag =
  let n = String.length tag in
  n >= 5
  && tag.[n - 5] = ':'
  && tag.[n - 4] = 'p'
  && tag.[n - 3] = 'u'
  && tag.[n - 2] = 'l'
  && tag.[n - 1] = 'l'

(* Deferred intervals pulled on demand are peer transfers with a
   ":pull" tag; count their bytes into the per-array coherence
   counters. *)
let count_pulls t (xfers : Darray.xfer list) =
  List.iter
    (fun (x : Darray.xfer) ->
      let tag = x.Darray.tag in
      if is_peer x && is_pull tag then
        Profiler.add_coh_pulled t.profiler
          ~array:(String.sub tag 0 (String.length tag - 5))
          ~bytes:x.Darray.bytes)
    xfers

(* Advance a GPU's readiness timeline and remember which trace span did
   it (-1 for none), so downstream gated ops can cite their producer. *)
let record_ev t g fin sid =
  if fin > Event.gpu_ready t.events g then t.ev_spans.(g) <- sid;
  Event.record t.events g fin

let ev_cause t g = if t.ev_spans.(g) >= 0 then [ t.ev_spans.(g) ] else []

(* A dependency: when something became available, and the trace spans
   that produced it. *)
type slot = float * int list

let ev_slot t g : slot = (Event.gpu_ready t.events g, ev_cause t g)

(* [c] added to [causes], which is ascending and without duplicates. *)
let rec insert_cause c = function
  | [] -> [ c ]
  | x :: rest as causes ->
      if c < x then c :: causes else if c = x then causes else x :: insert_cause c rest

(* The join of some dependencies, never before the host clock, and their
   spans in ascending order without duplicates. A slot cites at most a
   span or two, so inserting them one at a time stays short. *)
let join t (slots : slot list) =
  ( List.fold_left (fun acc (time, _) -> Float.max acc time) t.clock slots,
    List.fold_left
      (fun acc (_, spans) -> List.fold_left (fun acc c -> insert_cause c acc) acc spans)
      [] slots )

(* ---------------- phases ---------------- *)

(* One phase of a launch: loads, a relayout, the kernels, a reconcile
   step, the scalar pull. Under the barrier gate it opens at the join of
   everything issued so far and closes as one epoch from there to its
   last finish, which every GPU then waits behind. Under the overlap gate
   it only collects ops for one horizon charge at close; its transfer
   batches are charged one by one as they land ([run_batch]). *)
type phase = {
  gate : gate;
  cat : Blame.category;
  label : string;
  causes : int list;  (** barrier: the span that set the join *)
  mutable lo : float;  (** barrier: the join; overlap: the earliest op start *)
  mutable hi : float;  (** the latest finish *)
  mutable last : int;  (** the span of the latest finish, -1 for none *)
  mutable bytes : int;
  first : int;
      (** where the phase's span ids start in the session's [phase_spans];
          a phase opened inside it is closed before it adds again *)
  mutable ops : int;
}

let open_phase ?at t gate cat ~label =
  (* The latest GPU event and the span that set it, before the barrier
     collapses every event to the join. *)
  let latest = ref neg_infinity and cause = ref (-1) in
  if gate = Barrier then
    for g = 0 to t.cfg.Rt_config.num_gpus - 1 do
      if Event.gpu_ready t.events g > !latest then begin
        latest := Event.gpu_ready t.events g;
        cause := t.ev_spans.(g)
      end
    done;
  let lo =
    match (gate, at) with
    | _, Some at -> at
    | Barrier, None -> Float.max t.clock (Event.barrier t.events)
    | Overlap, None -> infinity
  in
  {
    gate;
    cat;
    label;
    causes = (if !cause >= 0 && !latest >= lo then [ !cause ] else []);
    lo;
    hi = (match gate with Barrier -> lo | Overlap -> neg_infinity);
    last = -1;
    bytes = 0;
    first = Int_buf.length t.phase_spans;
    ops = 0;
  }

let add t ph ~start ~finish ~bytes sid =
  ph.ops <- ph.ops + 1;
  ph.lo <- Float.min ph.lo start;
  if finish > ph.hi then begin
    ph.hi <- finish;
    ph.last <- sid
  end;
  ph.bytes <- ph.bytes + bytes;
  if sid >= 0 then Int_buf.push t.phase_spans sid

(* [add] for every transfer of a batch that has run, with the phase's
   times in locals, so the loop boxes no float. *)
let add_batch t ph (b : Fabric.batch) =
  let lo = ref ph.lo and hi = ref ph.hi and last = ref ph.last and bytes = ref ph.bytes in
  for i = 0 to b.Fabric.len - 1 do
    let finish = Float.Array.get b.Fabric.finish i and sid = b.Fabric.span.(i) in
    lo := Float.min !lo (Float.Array.get b.Fabric.ready i);
    if finish > !hi then begin
      hi := finish;
      last := sid
    end;
    bytes := !bytes + b.Fabric.bytes.(i);
    if sid >= 0 then Int_buf.push t.phase_spans sid
  done;
  ph.ops <- ph.ops + b.Fabric.len;
  ph.lo <- !lo;
  ph.hi <- !hi;
  ph.last <- !last;
  ph.bytes <- !bytes

(* The one charge point of a launch. Overlap accounting: only the part of
   [lo, hi] past the makespan horizon is exposed critical-path time and
   lands in the category; the part in the shadow of earlier work is
   hidden. A gap between the horizon and [lo] means the machine sat
   waiting on a host-side dependency and is charged as overhead. So the
   category times sum to the makespan. *)
let close t ph =
  if ph.ops > 0 then begin
    Wall.enter Wall.Charge;
    let spans = (t.phase_spans, ph.first) in
    (match ph.gate with
    | Barrier ->
        Profiler.charge t.profiler ~spans ph.cat ~label:ph.label ~exposed:(ph.hi -. ph.lo)
          ~hidden:0.0 ~bytes:ph.bytes;
        t.horizon <- Float.max t.horizon ph.hi;
        for g = 0 to t.cfg.Rt_config.num_gpus - 1 do
          record_ev t g ph.hi ph.last
        done
    | Overlap ->
        let gap = Float.max 0.0 (ph.lo -. t.horizon) in
        if gap > 0.0 then
          Profiler.charge t.profiler Blame.Overhead ~label:("wait:" ^ ph.label) ~exposed:gap
            ~hidden:0.0 ~bytes:0;
        let exposed = Float.max 0.0 (ph.hi -. Float.max t.horizon ph.lo) in
        let hidden = Float.max 0.0 (ph.hi -. ph.lo -. exposed) in
        Profiler.charge t.profiler ~spans ph.cat ~label:ph.label ~exposed ~hidden ~bytes:ph.bytes;
        if ph.hi > t.horizon then t.horizon <- ph.hi);
    Int_buf.truncate t.phase_spans ph.first;
    Wall.leave ()
  end

(* When an op may start, and the spans it waits on. The barrier gate: the
   phase's join, waiting on the span that set it. The overlap gate: the
   join of exactly the op's dependencies. *)
let ready_in t ph deps =
  match ph.gate with Barrier -> (ph.lo, ph.causes) | Overlap -> join t (deps ())

(* Append a request, waiting on [causes], to the batch. *)
let request (b : Fabric.batch) dir ~bytes ~tag ((ready : float), causes) =
  Fabric.push b dir ~bytes ~ready ~tag;
  Fabric.add_causes b causes

(* Run the requests in [b] as one fabric batch of [ph] and charge them;
   each request's finish and span are then read from [b] by index. *)
let run_batch t ph (b : Fabric.batch) =
  if b.Fabric.len > 0 then begin
    Wall.enter Wall.Comms;
    count_wire_bytes t b;
    Machine.run_transfers_spans t.cfg.Rt_config.machine ~label:ph.label b;
    (* Under the overlap gate every batch is charged on its own. *)
    let unit =
      match ph.gate with Barrier -> ph | Overlap -> open_phase t Overlap ph.cat ~label:ph.label
    in
    add_batch t unit b;
    if unit != ph then close t unit;
    Wall.leave ()
  end

(* Host-driven transfers (copyin/copyout/update) are host-visible sync
   points under either gate: they wait for everything in flight, run
   exposed as one barrier epoch, and every GPU then waits behind them.
   Under lazy coherence a flush list may lead with on-demand P2p pulls
   (replica 0 turning coherent); those ride the interconnect before the
   host copy and are charged as GPU-GPU traffic. *)
let charge_host_xfers t ~label xfers =
  if xfers <> [] then begin
    count_pulls t xfers;
    let finish =
      List.fold_left
        (fun ready (cat, peers) ->
          let ph = open_phase ~at:ready t Barrier cat ~label in
          let b = t.batch in
          Fabric.clear b;
          List.iter
            (fun (x : Darray.xfer) ->
              if is_peer x = peers then
                Fabric.push b x.Darray.dir ~bytes:x.Darray.bytes ~ready ~tag:x.Darray.tag)
            xfers;
          run_batch t ph b;
          close t ph;
          ph.hi)
        (Float.max t.clock t.horizon)
        [ (Blame.Gpu_gpu, true); (Blame.Cpu_gpu, false) ]
    in
    Event.record_host t.events finish;
    t.clock <- finish
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
            Loc.error sub.Ast.sub_loc "present(%s): array is not on the device" sub.Ast.sub_array)
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
      Wall.enter Wall.Kernel_compile;
      let c = Launch.compile_kernel plan ~param_types:(param_types_of env plan) in
      Wall.leave ();
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
                     (fun rg ->
                       Mgacc_util.Interval.Set.of_interval
                         (Task_map.affine_window rg ~coeff ~cmin ~cmax))
                     ranges)))


(* Fusion-mode layout transposition: the first launch whose plan reads a
   transposed array materializes the packed copy — a small repack kernel
   per GPU streaming the original layout in and the new one out (~16
   bytes per element). Later launches read the array coalesced at no
   further cost; [t.repacked] makes the charge one-time per session. *)
let relayout_cost elems =
  let c = Mgacc_gpusim.Cost.zero () in
  c.Mgacc_gpusim.Cost.coalesced_bytes <- 16 * elems;
  c

let fold_scalar_partials env scalar_partials =
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

(* The collective plan for one (loop site, ship wave), under every
   collective mode: the only path from a wave's ops to the fabric.
   Planning is a pure function of (mode, fabric, ops) and a session
   fixes the mode and the fabric: a launch whose ops equal the site's
   last ones (iterative apps re-run their loops with stable bounds)
   reuses that plan and its stats, exactly what planning afresh would
   return. Any other op list is planned and replaces the entry. The
   check compares field by field ([Comm_manager.equal_ops]): each launch
   rebuilds its ops, tags included, so it walks the whole list when the
   plan is reused. *)
let plan_collective t site ops =
  match Hashtbl.find_opt t.collectives site with
  | Some (last, planned) when Comm_manager.equal_ops last ops -> planned
  | Some _ | None ->
      let planned = Collective.plan ~cfg:t.cfg ~fabric:(fabric_of t) ops in
      Hashtbl.replace t.collectives site (ops, planned);
      planned

(* A step of the reconciliation. Its order is the gate's: the barrier
   runs the dirty-bit scan, then every op in one wave, then the replay
   and combine kernels; the overlap engine runs wave 1, then the replay
   and combine kernels, then wave 2. Each wave ships through its
   collective plan, level by level. *)
type step = Scan | Ship of { wave : int; ops : Comm_manager.op list } | Replay_combine

(* One parallel loop on the GPUs: load → rebalance → relayout → kernels →
   scheduler feed → reconcile → scalar reduction, each phase ordered by
   the launch's gate (docs/OVERLAP.md). Per-GPU event timelines persist
   across launches, so under the overlap gate a launch's reconciliation
   drains while the host runs ahead and the next launch's fast GPUs start
   early. *)
let launch t env loop plan =
  let gate = gate_of t in
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
  (* The data loader makes device copies valid (CPU-GPU). *)
  let arrays =
    List.filter
      (fun name -> Host_interp.find_array_opt env name <> None)
      plan.Kernel_plan.free_vars
  in
  Wall.enter Wall.Load;
  let prep =
    Data_loader.prepare t.cfg
      ?grid:(Option.map (fun (_, pr, pc) -> (pr, pc)) tiling)
      plan ~ranges ~eval_int:(Host_interp.eval_int env) ~get_darray:(get_darray t env) ~arrays
  in
  Wall.leave ();
  count_pulls t prep.Data_loader.xfers;
  Log.debug (fun m ->
      m "loop %d: loader moved %d bytes in %d transfer(s)" loop.Loop_info.loop_id
        (List.fold_left
           (fun acc (x : Darray.xfer) -> acc + x.Darray.bytes)
           0 prep.Data_loader.xfers)
        (List.length prep.Data_loader.xfers));
  let machine = t.cfg.Rt_config.machine in
  let reductions = prep.Data_loader.reductions in
  (* Reused arrays are prefetch hits only when a launch can run ahead. *)
  if gate = Overlap then
    Profiler.add_prefetch_hits t.profiler ~count:(List.length prep.Data_loader.reused);
  (* Loads, each on its own endpoints. A scheduler re-split moves deltas
     GPU-to-GPU: inter-GPU traffic, not part of the host load. *)
  List.iter
    (fun (cat, label, peers) ->
      let ph = open_phase t gate cat ~label in
      let b = t.batch in
      Fabric.clear b;
      List.iter
        (fun (x : Darray.xfer) ->
          if is_peer x = peers then
            let src, dst = endpoints x.Darray.dir in
            request b x.Darray.dir ~bytes:x.Darray.bytes ~tag:x.Darray.tag
              (ready_in t ph (fun () -> [ ev_slot t src; ev_slot t dst ])))
        prep.Data_loader.xfers;
      run_batch t ph b;
      for i = 0 to b.Fabric.len - 1 do
        let src, dst = endpoints b.Fabric.dirs.(i) in
        let finish = Float.Array.get b.Fabric.finish i in
        record_ev t src finish b.Fabric.span.(i);
        record_ev t dst finish b.Fabric.span.(i)
      done;
      close t ph)
    [ (Blame.Cpu_gpu, "load", false); (Blame.Gpu_gpu, "rebalance", true) ];
  (* Repacks: the launch's kernels read the packed copies. *)
  List.iter
    (fun name ->
      Hashtbl.replace t.repacked name ();
      Profiler.add_relayout t.profiler;
      let elems = (get_darray t env name).Darray.length in
      let ph = open_phase t gate Blame.Kernel ~label:("relayout:" ^ name) in
      for g = 0 to num_gpus - 1 do
        let ready, causes = ready_in t ph (fun () -> [ ev_slot t g ]) in
        Wall.enter Wall.Charge;
        let start, finish, sid =
          Machine.launch_kernel_span ~causes machine ~dev:g ~ready ~threads:elems ~label:ph.label
            (relayout_cost elems)
        in
        Wall.leave ();
        record_ev t g finish sid;
        add t ph ~start ~finish ~bytes:0 sid
      done;
      close t ph)
    (List.filter
       (fun name -> not (Hashtbl.mem t.repacked name))
       (Kernel_plan.relayout_arrays plan));
  (* Kernels on every GPU with work. *)
  let compiled = compiled_for t env plan in
  Wall.enter Wall.Kernels;
  let runs, scalar_partials =
    Launch.run_on_gpus ?col_bounds plan compiled ~pool:t.pool ~ranges
      ~get_scalar:(Host_interp.get_scalar env)
      ~get_darray:(get_darray t env)
      ~get_reduction:(fun name -> List.assoc_opt name reductions)
  in
  Wall.leave ();
  let kph = open_phase t gate Blame.Kernel ~label:"kernels" in
  (* Per GPU: when its kernel time starts counting, its kernel's finish
     and span (a GPU without work: its ready time, no span). *)
  let kstart = Array.init num_gpus (fun g -> Float.max t.clock (Event.gpu_ready t.events g)) in
  let kfin = Array.copy kstart and kspan = Array.make num_gpus (-1) in
  List.iter
    (fun (run : Launch.gpu_run) ->
      assert (run.Launch.iterations > 0);
      Profiler.incr_kernel_launches t.profiler;
      let g = run.Launch.gpu in
      let ready, causes = ready_in t kph (fun () -> [ ev_slot t g ]) in
      Wall.enter Wall.Charge;
      let start, finish, sid =
        Machine.launch_kernel_span ~causes machine ~dev:g ~ready
          ~threads:(run.Launch.iterations * thread_multiplier)
          ~label:(Program_plan.kernel_label t.plans loop)
          run.Launch.cost
      in
      Wall.leave ();
      (* The barrier measures a kernel from the phase's ready time, not
         the device's start (they differ when sessions share a device),
         and ends the phase at [ready + (finish - ready)]. *)
      let from, ends =
        match gate with Barrier -> (ready, ready +. (finish -. ready)) | Overlap -> (start, finish)
      in
      kstart.(g) <- from;
      kfin.(g) <- finish;
      kspan.(g) <- sid;
      record_ev t g ends sid;
      add t kph ~start:from ~finish:ends ~bytes:0 sid)
    runs;
  close t kph;
  (* Each GPU's kernel as a dependency, built once the kernels are in. *)
  let kernel =
    let slots =
      Array.init num_gpus (fun g : slot -> (kfin.(g), if kspan.(g) >= 0 then [ kspan.(g) ] else []))
    in
    fun g -> slots.(g)
  in
  (* Feed the scheduler: per-GPU busy time and the launch's imbalance. *)
  (match runs with
  | _ :: _ :: _ ->
      let secs =
        List.map
          (fun (run : Launch.gpu_run) -> kfin.(run.Launch.gpu) -. kstart.(run.Launch.gpu))
          runs
      in
      let slow = List.fold_left Float.max 0.0 secs in
      let fast = List.fold_left Float.min infinity secs in
      if slow > 0.0 then Profiler.add_imbalance t.profiler ~ratio:((slow -. fast) /. slow)
  | [] | [ _ ] -> ());
  let iters_per_gpu = Array.make num_gpus 0 in
  List.iter
    (fun (run : Launch.gpu_run) -> iters_per_gpu.(run.Launch.gpu) <- run.Launch.iterations)
    runs;
  (* A 2-D launch duplicates row ranges across column blocks; feeding
     those to the scheduler would teach it weights that disable tiling on
     the next launch (and flip-flop after). The 2-D grid is static. *)
  if
    tiling = None
    && Mgacc_sched.Scheduler.observe_events t.scheduler ~loop_id:loop.Loop_info.loop_id
         ~iterations:iters_per_gpu ~starts:kstart ~finishes:kfin
         ~total_iterations:iterations
         ~bytes_per_iter:(bytes_per_iter_of t env arrays)
  then Profiler.incr_rebalances t.profiler;
  (* Reconciliation. Under the overlap gate it is a dependency DAG: wave
     1 carries every op whose inputs exist at its source's kernel finish:
     dirty chunks (after that array's scan on the writing GPU), miss
     shipments, reduction gathers, and halos of arrays with no pending
     replay. Replay and combine kernels run gated on the arrival of
     exactly their inputs. Wave 2 carries what those kernels produce:
     halos of replayed arrays and reduction broadcasts. *)
  let wrote _ = hi > lo in
  Wall.enter Wall.Reconcile;
  let r =
    Comm_manager.reconcile t.cfg plan ~get_darray:(get_darray t env) ~reductions ~wrote
      ~next_window:(next_window_for t plan)
  in
  Wall.leave ();
  List.iter
    (fun (a, shipped, deferred) -> Profiler.add_coh t.profiler ~array:a ~shipped ~deferred)
    r.Comm_manager.coh;
  Log.debug (fun m ->
      m "loop %d: reconciliation ships %d bytes in %d transfer(s)" loop.Loop_info.loop_id
        (List.fold_left
           (fun acc (op : Comm_manager.op) -> acc + op.Comm_manager.bytes)
           0 r.Comm_manager.ops)
        (List.length r.Comm_manager.ops));
  let scans = Hashtbl.create 8 in
  List.iter (fun (g, a, sec) -> Hashtbl.replace scans (g, a) sec) r.Comm_manager.scans;
  (* Arrivals keyed by (GPU, array); per-array ones use GPU -1. *)
  let miss = Hashtbl.create 8 and gather = Hashtbl.create 8 in
  let replay = Hashtbl.create 8 and combine = Hashtbl.create 8 in
  let bump tbl key fin sid =
    match Hashtbl.find_opt tbl key with
    | Some (x, _) when x >= fin -> ()
    | _ -> Hashtbl.replace tbl key (fin, if sid >= 0 then [ sid ] else [])
  in
  (* Request [i] of the batch [b], which ran [op]'s transfer, has landed. *)
  let landed (op : Comm_manager.op) (b : Fabric.batch) i =
    let fin = Float.Array.get b.Fabric.finish i and sid = b.Fabric.span.(i) in
    let a = op.Comm_manager.array in
    match (op.Comm_manager.kind, op.Comm_manager.dir) with
    | (Comm_manager.Dirty_chunk | Comm_manager.Red_bcast), Fabric.P2p (_, dst) ->
        record_ev t dst fin sid
    | Comm_manager.Miss_ship, Fabric.P2p (_, dst) -> bump miss (dst, a) fin sid
    | Comm_manager.Red_gather, Fabric.P2p _ -> bump gather (-1, a) fin sid
    | Comm_manager.Halo_segment, Fabric.P2p (src, dst) ->
        record_ev t src fin sid;
        record_ev t dst fin sid
    | _, (Fabric.H2d g | Fabric.D2h g) -> record_ev t g fin sid
  in
  (* When a transfer of [op] over the hop [dir] may start: the hop a
     collective plan ships, or the op itself. Forwarded hops of a planned
     dirty merge ship a staged payload and wait only on the plan, which
     also gates each tree edge on its parent. The gate is tested first,
     so under the barrier, where every op is ready at the phase's join,
     no deps thunk is built per op. *)
  let op_deps ~wave dir (op : Comm_manager.op) =
    let src, dst = endpoints dir and osrc = fst (endpoints op.Comm_manager.dir) in
    let a = op.Comm_manager.array in
    match op.Comm_manager.kind with
    | Comm_manager.Dirty_chunk ->
        if src <> osrc then []
        else
          let time, spans = kernel src in
          [ (time +. Option.value ~default:0.0 (Hashtbl.find_opt scans (src, a)), spans) ]
    | Comm_manager.Miss_ship | Comm_manager.Red_gather -> [ kernel src ]
    | Comm_manager.Red_bcast ->
        let result =
          match Hashtbl.find_opt combine (-1, a) with
          | Some slot -> slot
          | None -> Option.value ~default:(kernel osrc) (Hashtbl.find_opt gather (-1, a))
        in
        [ result; kernel src ]
    | Comm_manager.Halo_segment ->
        kernel src :: kernel dst
        :: (if wave = 2 then Option.to_list (Hashtbl.find_opt replay (src, a)) else [])
  in
  let op_ready ph ~wave dir op =
    match ph.gate with
    | Barrier -> ready_in t ph (fun () -> [])
    | Overlap -> join t (op_deps ~wave dir op)
  in
  let steps =
    match gate with
    | Barrier ->
        [ Scan; Ship { wave = 1; ops = r.Comm_manager.ops }; Replay_combine ]
    | Overlap ->
        let has_replay a =
          List.exists
            (fun (k : Comm_manager.gpu_kernel) -> k.Comm_manager.array = a)
            r.Comm_manager.replays
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
        [ Ship { wave = 1; ops = wave1 }; Replay_combine; Ship { wave = 2; ops = wave2 } ]
  in
  List.iter
    (function
      | Scan ->
          let ph = open_phase t gate Blame.Overhead ~label:"dirty-scan" in
          let ready, causes = ready_in t ph (fun () -> []) in
          Wall.enter Wall.Charge;
          let finish, sid =
            Machine.overhead_span ~causes machine ~ready ~seconds:r.Comm_manager.scan_seconds
              ~label:ph.label
          in
          Wall.leave ();
          add t ph ~start:ready ~finish ~bytes:0 (Option.value ~default:(-1) sid);
          close t ph
      | Ship { wave; ops } ->
          let ph = open_phase t gate Blame.Gpu_gpu ~label:"comm" in
          Wall.enter Wall.Collective_plan;
          let cplan, cstats = plan_collective t (loop.Loop_info.loop_loc, wave) ops in
          Wall.leave ();
          if Rt_config.planned_collectives t.cfg then
            Profiler.add_collective t.profiler ~rings:cstats.Collective.rings
              ~hierarchies:cstats.Collective.hierarchies
              ~direct_groups:cstats.Collective.direct_groups ~segments:cstats.Collective.segments;
          Collective.execute ~plan:cplan ~batch:t.batch
            ~base:(fun (it : Collective.item) ->
              op_ready ph ~wave it.Collective.dir it.Collective.op)
            ~run:(run_batch t ph)
            ~on_complete:(fun (it : Collective.item) -> landed it.Collective.op)
            ();
          close t ph
      | Replay_combine ->
          (* Each replay waits on its owner's misses, each combine on its
             array's gathers. *)
          let ph = open_phase t gate Blame.Gpu_gpu ~label:"replay" in
          List.iter
            (fun ((k : Comm_manager.gpu_kernel), input, output, key) ->
              let g = k.Comm_manager.gpu in
              let ready, causes =
                ready_in t ph (fun () -> kernel g :: Option.to_list (Hashtbl.find_opt input key))
              in
              Wall.enter Wall.Charge;
              let start, finish, sid =
                Machine.launch_kernel_span ~causes machine ~dev:g ~ready ~threads:1024
                  ~label:k.Comm_manager.label k.Comm_manager.cost
              in
              Wall.leave ();
              Hashtbl.replace output key (finish, [ sid ]);
              record_ev t g finish sid;
              add t ph ~start ~finish ~bytes:0 sid)
            (List.map
               (fun (k : Comm_manager.gpu_kernel) ->
                 (k, miss, replay, (k.Comm_manager.gpu, k.Comm_manager.array)))
               r.Comm_manager.replays
            @ List.map
                (fun (k : Comm_manager.gpu_kernel) ->
                  (k, gather, combine, (-1, k.Comm_manager.array)))
                r.Comm_manager.combines);
          close t ph)
    steps;
  (* Scalar-reduction partials: under the overlap gate only these block
     the host — a launch with no scalar result returns control at once,
     which is where the cross-launch overlap comes from. *)
  if scalar_partials <> [] then begin
    let ph = open_phase t gate Blame.Cpu_gpu ~label:"scalar-red" in
    let b = t.batch in
    Fabric.clear b;
    List.iter
      (fun (run : Launch.gpu_run) ->
        let g = run.Launch.gpu in
        let gated = ready_in t ph (fun () -> [ kernel g ]) in
        List.iter
          (fun (name, _, _) ->
            request b (Fabric.D2h g) ~bytes:8 ~tag:(name ^ ":scalar-red") gated)
          scalar_partials)
      runs;
    run_batch t ph b;
    close t ph;
    fold_scalar_partials env scalar_partials;
    let finish = ref t.clock in
    for i = 0 to b.Fabric.len - 1 do
      finish := Float.max !finish (Float.Array.get b.Fabric.finish i)
    done;
    let finish = !finish in
    Event.record_host t.events finish;
    t.clock <- Float.max t.clock finish
  end;
  (* The barrier's host waits for the whole launch. *)
  if gate = Barrier then t.clock <- Float.max t.clock (Event.barrier t.events);
  Profiler.record_memory_peaks t.profiler machine ~num_gpus

let on_parallel_loop t env loop =
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
    launch t env loop plan
  end

(* ---------------- wiring ---------------- *)

(* Each hook is a host-time span of its own (the loop hook's phases nest
   inside it). *)
let hooks t =
  let spanned layer f env x =
    Wall.enter layer;
    f t env x;
    Wall.leave ()
  in
  {
    Host_interp.on_parallel_loop = spanned Wall.Hook on_parallel_loop;
    on_data_enter = spanned Wall.Data on_data_enter;
    on_data_exit = spanned Wall.Data on_data_exit;
    on_update_host = spanned Wall.Data on_update_host;
    on_update_device = spanned Wall.Data on_update_device;
  }

let finish t =
  if t.cfg.Rt_config.keep_resident then
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
  (* The program ends when the last in-flight op lands. *)
  t.clock <- Float.max t.clock t.horizon;
  Profiler.record_memory_peaks t.profiler t.cfg.Rt_config.machine ~num_gpus:t.cfg.Rt_config.num_gpus

(* Run the plans' own program: when fusion rewrote the source, the host
   must interpret the rewritten loops the plans were built from. *)
let execute t =
  Wall.enter Wall.Host;
  let env = Host_interp.run_program ~hooks:(hooks t) (Program_plan.program t.plans) in
  Wall.leave ();
  Wall.enter Wall.Data;
  finish t;
  Wall.leave ();
  env

let blame t =
  Blame.summarize t.profiler.Profiler.ledger ~trace:t.cfg.Rt_config.machine.Machine.trace

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

let run ?pool ?variant ?(with_blame = false) ~config:cfg program =
  (* A reused machine carries timeline availability from earlier runs;
     reset so back-to-back runs in one process match fresh-process runs
     (shared-machine contention is the fleet's job, not [run]'s). *)
  Machine.reset cfg.Rt_config.machine;
  Wall.enter Wall.Plan;
  let plans = Program_plan.build ~options:cfg.Rt_config.translator program in
  Wall.leave ();
  let t = create ?pool cfg plans in
  let env = execute t in
  Wall.enter Wall.Report;
  let r = report ?variant t in
  let r = if with_blame then Report.with_blame r (blame t) else r in
  Wall.leave ();
  (env, r)
