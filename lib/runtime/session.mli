(** Re-entrant runtime state.

    A session is one job's complete mutable runtime state — present
    table, compiled-kernel cache, profiler, scheduler, event timelines,
    and the program-order clock — threaded explicitly so that several
    jobs can share one simulated [Machine]/[Fabric]. The machine's
    timelines are the only shared state: a session started at simulated
    time [start] begins its clock there, and contention with earlier
    sessions emerges from the timelines' availability cursors. *)

module Event = Mgacc_gpusim.Event
module Program_plan = Mgacc_translator.Program_plan
module Loc = Mgacc_minic.Loc

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
      (** lazy coherence: last-observed iteration split per loop *)
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

val create : ?tenant:string -> ?start:float -> Rt_config.t -> Program_plan.t -> t
(** Fresh session whose clocks start at [start] (default 0, the classic
    single-job case). Raises [Invalid_argument] on a negative start. *)

val profiler : t -> Profiler.t
val now : t -> float
val tenant : t -> string
val start : t -> float

val elapsed : t -> float
(** Simulated seconds of execution so far ([now - start]). *)

val set_queue_seconds : t -> float -> unit
val queue_seconds : t -> float

val darray_device_bytes : Darray.t -> int
(** Device bytes the darray's current placement pins (0 if unallocated). *)

val resident_bytes : t -> int
(** Total device bytes pinned by this session's present table. *)

val spill_all : t -> Darray.xfer list
(** Evict every resident darray: flush dirty data back to the host views
    (tag [":spill"]), free all device storage, and empty the present
    table. Returns the transfer descriptors for the caller to charge. *)
