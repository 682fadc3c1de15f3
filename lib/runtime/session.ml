(* Re-entrant runtime state: everything one executing job mutates lives
   here, so N sessions can coexist on a shared Machine/Fabric without
   stepping on each other. Cross-session contention is modeled by the
   machine's timelines (a session's reservations push the shared [avail]
   cursors forward); everything else — present table, compiled kernels,
   profiler, clock — is private to the session. *)

module Event = Mgacc_gpusim.Event
module Program_plan = Mgacc_translator.Program_plan
module Loc = Mgacc_minic.Loc
module Interval = Mgacc_util.Interval

type t = {
  cfg : Rt_config.t;
  plans : Program_plan.t;
  profiler : Profiler.t;
  scheduler : Mgacc_sched.Scheduler.t;
  darrays : (string, Darray.t) Hashtbl.t;
  compiled : (Loc.t, Launch.compiled) Hashtbl.t;
  collectives :
    (Loc.t * int, Comm_manager.op list * (Collective.plan * Collective.stats)) Hashtbl.t;
      (** planned collectives: the last op list each (loop site, ship
          wave) handed the planner, with its plan and stats, reused while
          the site's ops repeat (docs/MODEL.md, "Collectives") *)
  events : Event.t;  (** per-GPU data-readiness timelines *)
  seen_ranges : (Loc.t, Task_map.range array) Hashtbl.t;
      (** lazy coherence: last-observed iteration split per loop, used to
          resolve the lookahead's affine windows into concrete per-GPU
          element ranges (iterative apps re-run loops with stable bounds) *)
  repacked : (string, unit) Hashtbl.t;
      (** fusion-mode layout transposition: arrays whose transposed device
          copy was already materialized (the repack is charged once) *)
  tenant : string;  (** owning tenant, for fleet-level accounting *)
  start : float;  (** simulated admission instant the clocks started from *)
  ev_spans : int array;
      (** trace span id that last advanced each GPU's event
          timeline (-1 when unknown), so gated ops can cite their producer *)
  mutable queue_seconds : float;  (** time spent queued before admission *)
  mutable clock : float;  (** host program-order time *)
  mutable horizon : float;  (** makespan over everything issued *)
}

let create ?(tenant = "default") ?(start = 0.0) cfg plans =
  if start < 0.0 then invalid_arg "Session.create: negative start time";
  let profiler = Profiler.create () in
  (match Program_plan.contracted_arrays plans with
  | [] -> ()
  | contracted -> Profiler.add_contracted_arrays profiler ~count:(List.length contracted));
  {
    cfg;
    plans;
    profiler;
    scheduler =
      Mgacc_sched.Scheduler.create ~machine:cfg.Rt_config.machine
        ~num_gpus:cfg.Rt_config.num_gpus ~policy:cfg.Rt_config.schedule
        ~knobs:Mgacc_sched.Feedback.default_knobs;
    darrays = Hashtbl.create 16;
    compiled = Hashtbl.create 16;
    collectives = Hashtbl.create 16;
    events = Event.create ~num_gpus:cfg.Rt_config.num_gpus;
    seen_ranges = Hashtbl.create 16;
    repacked = Hashtbl.create 4;
    tenant;
    start;
    ev_spans = Array.make cfg.Rt_config.num_gpus (-1);
    queue_seconds = 0.0;
    clock = start;
    horizon = start;
  }

let profiler t = t.profiler
let now t = t.clock
let tenant t = t.tenant
let start t = t.start
let elapsed t = Float.max 0.0 (t.clock -. t.start)
let set_queue_seconds t s = t.queue_seconds <- Float.max 0.0 s
let queue_seconds t = t.queue_seconds

(* Device bytes a darray currently pins, from its logical placement (one
   full-length buffer per GPU when replicated, the window sizes when
   distributed). This is the fleet's memory-pressure ledger currency. *)
let darray_device_bytes (da : Darray.t) =
  let eb = Darray.elem_bytes da in
  match da.Darray.state with
  | Darray.Unallocated -> 0
  | Darray.Replicated r -> Array.length r.Darray.bufs * da.Darray.length * eb
  | Darray.Distributed d ->
      Array.fold_left
        (fun acc (p : Darray.part) -> acc + (Interval.length p.Darray.window * eb))
        0 d.Darray.parts

let resident_bytes t = Hashtbl.fold (fun _ da acc -> acc + darray_device_bytes da) t.darrays 0

(* Evict every resident darray: write dirty data back to the host view
   and free the device storage. Returns the transfer descriptors (tag
   ":spill") in array-name order so callers can charge them; host copies
   stay value-correct, and a later [ensure_*] transparently reloads. *)
let spill_all t =
  let entries = Hashtbl.fold (fun name da acc -> (name, da) :: acc) t.darrays [] in
  let entries = List.sort (fun (a, _) (b, _) -> String.compare a b) entries in
  let xfers = List.concat_map (fun (_, da) -> Darray.spill_to_host t.cfg da) entries in
  Hashtbl.reset t.darrays;
  xfers
