(* Tests for the topology-aware collective transfer planner
   (--collective direct|ring|auto), through which every launch ships its
   reconcile ops: direct as the default that plans no ring or hierarchy,
   functional equivalence of ring/auto schedules on whole applications
   across machines and coherence modes, the planner's structural
   invariants — byte conservation, well-formed pipelining dependencies,
   node-grouped ring orders that cross the wire once per node boundary,
   and the cost model preferring topology-shaped schedules for large
   payloads while keeping latency-bound small groups direct — and tree
   edges that leave only after their payload lands. See docs/MODEL.md,
   "Collectives". *)

open Mgacc_apps
module Collective = Mgacc.Collective
module Comm_manager = Mgacc.Comm_manager
module Fabric = Mgacc.Fabric
module Rt_config = Mgacc.Rt_config

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let collective_switch = List.find (fun s -> s.Rt_config.name = "collective") Rt_config.switches
let desktop () = Mgacc.Machine.desktop ()
let supernode () = Mgacc.Machine.supernode ()
let cluster4 () = Mgacc.Machine.cluster ~nodes:2 ~gpus_per_node:2 ()

let bfs_small = Bfs.app { Bfs.nodes = 12000; max_degree = 10; seed = 5 }

let kmeans_small =
  Kmeans.app { Kmeans.points = 4000; features = 12; clusters = 5; iterations = 6; seed = 11 }

let md_small = Md.app { Md.atoms = 400; max_neighbors = 8; seed = 17 }
let spmv_small = Spmv.app { Spmv.rows = 3000; width = 8; iterations = 4; seed = 19 }
let five_apps =
  [ bfs_small; kmeans_small; md_small; spmv_small;
    Montecarlo.app { Montecarlo.paths = 3000; steps = 8; bins = 32; seed = 29 } ]

(* ---------------- direct mode is the identity ---------------- *)

let test_direct_is_the_default () =
  (* [--collective direct] is the default: a run with the flag matches a
     run with no flag at all, down to the exact simulated times, on every
     machine and coherence mode, and its plans keep every group's own
     schedule. *)
  List.iter
    (fun (machine, gpus) ->
      List.iter
        (fun coherence ->
          let fresh = machine in
          let _, r_default =
            App_common.proposal (Rt_config.make ~coherence ~num_gpus:gpus (fresh ())) kmeans_small
          in
          let _, r_direct =
            App_common.proposal
              (Rt_config.make ~coherence ~collective:Rt_config.Direct ~num_gpus:gpus (fresh ()))
              kmeans_small
          in
          check Alcotest.bool "identical total" true
            (Float.equal r_default.Mgacc.Report.total_time r_direct.Mgacc.Report.total_time);
          check Alcotest.bool "identical gpu-gpu" true
            (Float.equal r_default.Mgacc.Report.gpu_gpu_time r_direct.Mgacc.Report.gpu_gpu_time);
          check Alcotest.int "identical gpu-gpu bytes" r_default.Mgacc.Report.gpu_gpu_bytes
            r_direct.Mgacc.Report.gpu_gpu_bytes;
          check Alcotest.int "no planned groups" 0
            (r_direct.Mgacc.Report.collective_rings + r_direct.Mgacc.Report.collective_hierarchies))
        [ Rt_config.Eager; Rt_config.Lazy ])
    [ (desktop, 2); (cluster4, 4) ]

(* ---------------- whole-application equivalence ---------------- *)

let test_planned_results_match_sequential () =
  (* Ring and auto reshape who sends what to whom, but every destination
     must end with the same payload: all apps match the sequential
     reference under both execution engines and coherence modes. *)
  List.iter
    (fun app ->
      let reference = App_common.sequential app in
      List.iter
        (fun collective ->
          let env, _ =
            App_common.proposal (Rt_config.make ~collective ~num_gpus:4 (cluster4 ())) app
          in
          App_common.check_exn app ~against:reference env;
          let env_lazy, _ =
            App_common.proposal
              (Rt_config.make ~collective ~coherence:Rt_config.Lazy ~overlap:true ~num_gpus:4
                 (cluster4 ()))
              app
          in
          App_common.check_exn app ~against:reference env_lazy)
        [ Rt_config.Ring; Rt_config.Auto ])
    five_apps

let test_planned_results_single_node () =
  List.iter
    (fun app ->
      let reference = App_common.sequential app in
      let env, _ =
        App_common.proposal
          (Rt_config.make ~collective:Rt_config.Ring ~overlap:true ~num_gpus:3 (supernode ()))
          app
      in
      App_common.check_exn app ~against:reference env;
      let env2, _ =
        App_common.proposal
          (Rt_config.make ~collective:Rt_config.Auto ~coherence:Rt_config.Lazy ~num_gpus:2
             (desktop ()))
          app
      in
      App_common.check_exn app ~against:reference env2)
    [ kmeans_small; bfs_small ]

(* ---------------- planner structure ---------------- *)

let mk_op ?(kind = Comm_manager.Dirty_chunk) ?(round = 0) ~group ~bytes src dst =
  {
    Comm_manager.dir = Fabric.P2p (src, dst);
    bytes;
    tag = "a:chunk";
    array = "a";
    kind;
    round;
    group;
  }

(* {!Collective.execute} against a bare fabric with a constant ready time:
   the plan's last finish, the measuring stick of the tests below. *)
let simulate ~fabric ~plan ~ready =
  let last = ref neg_infinity in
  Collective.execute ~plan ~batch:(Fabric.batch ())
    ~base:(fun _ -> (ready, []))
    ~run:(Fabric.run fabric)
    ~on_complete:(fun _ b k -> last := Float.max !last (Float.Array.get b.Fabric.finish k))
    ();
  !last

let cfg_for machine collective =
  Rt_config.make ~num_gpus:(Mgacc.Machine.num_gpus machine) ~collective machine

(* Star broadcast group: root 0 to every other GPU. *)
let star_group ~bytes machine =
  let n = Mgacc.Machine.num_gpus machine in
  List.init (n - 1) (fun i -> mk_op ~group:1 ~bytes 0 (i + 1))

let delivered_bytes plan dst =
  Array.fold_left
    (fun acc (it : Collective.item) ->
      match it.Collective.dir with
      | Fabric.P2p (_, d) when d = dst -> acc + it.Collective.bytes
      | _ -> acc)
    0 plan

let total_bytes plan =
  Array.fold_left (fun acc (it : Collective.item) -> acc + it.Collective.bytes) 0 plan

let wire_crossings fabric plan =
  Array.fold_left
    (fun acc (it : Collective.item) ->
      match it.Collective.dir with
      | Fabric.P2p (a, b) when not (Fabric.same_node fabric a b) -> acc + it.Collective.bytes
      | _ -> acc)
    0 plan

let deps_well_formed (plan : Collective.plan) =
  let ok = ref true in
  Array.iteri
    (fun i (it : Collective.item) ->
      let dep_ok d =
        d = -1 || (d >= 0 && d < i && plan.(d).Collective.level < it.Collective.level)
      in
      if not (dep_ok it.Collective.dep && dep_ok it.Collective.dep2) then ok := false)
    plan;
  !ok

let test_ring_conserves_bytes () =
  let machine = cluster4 () in
  let fabric = machine.Mgacc.Machine.fabric in
  let bytes = 8 * 1024 * 1024 in
  let cfg = cfg_for machine Rt_config.Ring in
  let plan, stats = Collective.plan ~cfg ~fabric (star_group ~bytes machine) in
  check Alcotest.int "one ring" 1 stats.Collective.rings;
  (* p-1 copies in total, exactly one full payload landing per destination *)
  check Alcotest.int "total bytes = (p-1) * payload" (3 * bytes) (total_bytes plan);
  for dst = 1 to 3 do
    check Alcotest.int (Printf.sprintf "gpu %d receives the payload" dst) bytes
      (delivered_bytes plan dst)
  done;
  check Alcotest.bool "pipelining deps well-formed" true (deps_well_formed plan);
  check Alcotest.bool "segmented" true (stats.Collective.segments >= 1)

let test_ring_minimizes_wire_crossings () =
  (* Node-grouped chain on a 2x2 cluster: the payload crosses the wire
     once; the star from GPU 0 crosses once per remote destination. *)
  let machine = cluster4 () in
  let fabric = machine.Mgacc.Machine.fabric in
  let bytes = 4 * 1024 * 1024 in
  let ring_plan, _ =
    Collective.plan ~cfg:(cfg_for machine Rt_config.Ring) ~fabric
      (star_group ~bytes machine)
  in
  let direct_plan, _ =
    Collective.plan ~cfg:(cfg_for machine Rt_config.Direct) ~fabric
      (star_group ~bytes machine)
  in
  check Alcotest.int "ring crosses the wire once" bytes (wire_crossings fabric ring_plan);
  check Alcotest.int "star crosses once per remote dst" (2 * bytes)
    (wire_crossings fabric direct_plan)

let test_auto_keeps_small_payloads_direct () =
  let machine = cluster4 () in
  let fabric = machine.Mgacc.Machine.fabric in
  let cfg = cfg_for machine Rt_config.Auto in
  let plan, stats = Collective.plan ~cfg ~fabric (star_group ~bytes:64 machine) in
  check Alcotest.int "small group stays direct" 1 stats.Collective.direct_groups;
  check Alcotest.int "no rings" 0 (stats.Collective.rings + stats.Collective.hierarchies);
  check Alcotest.int "payload untouched" (3 * 64) (total_bytes plan)

let test_auto_beats_direct_on_cluster () =
  (* For a large replicated payload on the 2x2 cluster, whatever auto
     picks must simulate faster than the star and put fewer bytes on the
     inter-node wire. *)
  let machine = cluster4 () in
  let fabric = machine.Mgacc.Machine.fabric in
  let bytes = 16 * 1024 * 1024 in
  let ops = star_group ~bytes machine in
  let auto_plan, stats =
    Collective.plan ~cfg:(cfg_for machine Rt_config.Auto) ~fabric ops
  in
  let direct_plan, _ =
    Collective.plan ~cfg:(cfg_for machine Rt_config.Direct) ~fabric ops
  in
  check Alcotest.bool "auto reshapes the group" true
    (stats.Collective.rings + stats.Collective.hierarchies = 1);
  let t_auto = simulate ~fabric ~plan:auto_plan ~ready:0.0 in
  let t_direct = simulate ~fabric ~plan:direct_plan ~ready:0.0 in
  check Alcotest.bool
    (Printf.sprintf "auto (%.6fs) faster than direct (%.6fs)" t_auto t_direct)
    true (t_auto < t_direct);
  check Alcotest.bool "auto puts fewer bytes on the wire" true
    (wire_crossings fabric auto_plan < wire_crossings fabric direct_plan)

let test_tree_group_keeps_explicit_deps () =
  (* A binomial-tree broadcast kept direct must encode its rounds as
     explicit dependencies: the round-1 edge from GPU 1 may not leave
     before the round-0 edge that delivered to GPU 1 has finished. *)
  let machine = cluster4 () in
  let fabric = machine.Mgacc.Machine.fabric in
  let ops =
    [
      mk_op ~kind:Comm_manager.Red_bcast ~round:0 ~group:7 ~bytes:64 0 1;
      mk_op ~kind:Comm_manager.Red_bcast ~round:1 ~group:7 ~bytes:64 0 2;
      mk_op ~kind:Comm_manager.Red_bcast ~round:1 ~group:7 ~bytes:64 1 3;
    ]
  in
  let plan, stats = Collective.plan ~cfg:(cfg_for machine Rt_config.Auto) ~fabric ops in
  check Alcotest.int "tiny tree stays direct" 1 stats.Collective.direct_groups;
  check Alcotest.int "passthrough keeps all edges" 3 (Array.length plan);
  let edge_1_3 =
    Array.to_list plan
    |> List.find (fun (it : Collective.item) -> it.Collective.dir = Fabric.P2p (1, 3))
  in
  check Alcotest.bool "round-1 edge depends on its source's arrival" true
    (edge_1_3.Collective.dep >= 0
    && plan.(edge_1_3.Collective.dep).Collective.dir = Fabric.P2p (0, 1));
  check Alcotest.bool "deps well-formed" true (deps_well_formed plan)

(* Allreduce group: every member ships its partial toward root 0
   (gathers) and the combined result broadcasts back out, all under one
   group id — the shape the communication manager emits for an eager
   reduction under planned collectives. *)
let allreduce_group ~bytes machine =
  let n = Mgacc.Machine.num_gpus machine in
  List.init (n - 1) (fun i ->
      mk_op ~kind:Comm_manager.Red_gather ~group:3 ~bytes (i + 1) 0)
  @ List.init (n - 1) (fun i ->
        mk_op ~kind:Comm_manager.Red_bcast ~group:3 ~bytes 0 (i + 1))

let test_allreduce_ring_schedule () =
  (* Ring mode lowers the gather+broadcast pair to reduce-scatter +
     all-gather: 2(p-1) rounds of p chunk-sized hops, conserving the
     2(p-1) payload copies of the original star pair. *)
  let machine = cluster4 () in
  let fabric = machine.Mgacc.Machine.fabric in
  let bytes = 8 * 1024 * 1024 in
  let cfg = cfg_for machine Rt_config.Ring in
  let plan, stats = Collective.plan ~cfg ~fabric (allreduce_group ~bytes machine) in
  check Alcotest.int "one allreduce" 1 stats.Collective.allreduces;
  check Alcotest.int "p chunks" 4 stats.Collective.segments;
  check Alcotest.int "2(p-1) rounds of p hops" (2 * 3 * 4) (Array.length plan);
  check Alcotest.int "total bytes = 2(p-1) * payload" (2 * 3 * bytes) (total_bytes plan);
  check Alcotest.bool "deps well-formed" true (deps_well_formed plan);
  (* every GPU both sends and receives on every round: the load is even *)
  for g = 0 to 3 do
    let sent =
      Array.fold_left
        (fun acc (it : Collective.item) ->
          match it.Collective.dir with
          | Fabric.P2p (s, _) when s = g -> acc + it.Collective.bytes
          | _ -> acc)
        0 plan
    in
    check
      (Alcotest.float (float_of_int (2 * 3)))
      (Printf.sprintf "gpu %d sends 2(p-1)/p of the payload" g)
      (float_of_int (2 * 3 * bytes) /. 4.0)
      (float_of_int sent)
  done

let test_allreduce_auto_beats_star_on_cluster () =
  (* Large payload on the 2x2 cluster: auto must pick a reshaped
     allreduce that simulates faster and puts fewer bytes on the
     inter-node wire than the gather+broadcast star pair. *)
  let machine = cluster4 () in
  let fabric = machine.Mgacc.Machine.fabric in
  let bytes = 16 * 1024 * 1024 in
  let ops = allreduce_group ~bytes machine in
  let auto_plan, stats =
    Collective.plan ~cfg:(cfg_for machine Rt_config.Auto) ~fabric ops
  in
  let direct_plan, _ =
    Collective.plan ~cfg:(cfg_for machine Rt_config.Direct) ~fabric ops
  in
  check Alcotest.int "auto reshapes the allreduce" 1 stats.Collective.allreduces;
  let t_auto = simulate ~fabric ~plan:auto_plan ~ready:0.0 in
  let t_direct = simulate ~fabric ~plan:direct_plan ~ready:0.0 in
  check Alcotest.bool
    (Printf.sprintf "auto (%.6fs) faster than star pair (%.6fs)" t_auto t_direct)
    true (t_auto < t_direct);
  check Alcotest.bool "fewer bytes on the wire" true
    (wire_crossings fabric auto_plan < wire_crossings fabric direct_plan)

let test_allreduce_malformed_stays_direct () =
  (* Gathers without a broadcast half (a deferred result), or mismatched
     payloads, must fall back to the explicit-dependency direct schedule
     with every byte preserved. *)
  let machine = cluster4 () in
  let fabric = machine.Mgacc.Machine.fabric in
  let cfg = cfg_for machine Rt_config.Ring in
  let gathers_only =
    List.init 3 (fun i -> mk_op ~kind:Comm_manager.Red_gather ~group:3 ~bytes:4096 (i + 1) 0)
  in
  let plan, stats = Collective.plan ~cfg ~fabric gathers_only in
  check Alcotest.int "gathers-only group stays direct" 1 stats.Collective.direct_groups;
  check Alcotest.int "no allreduce" 0 stats.Collective.allreduces;
  check Alcotest.int "bytes preserved" (3 * 4096) (total_bytes plan);
  let mismatched =
    mk_op ~kind:Comm_manager.Red_gather ~group:5 ~bytes:1024 1 0
    :: mk_op ~kind:Comm_manager.Red_gather ~group:5 ~bytes:4096 2 0
    :: List.init 3 (fun i -> mk_op ~kind:Comm_manager.Red_bcast ~group:5 ~bytes:4096 0 (i + 1))
  in
  let plan2, stats2 = Collective.plan ~cfg ~fabric mismatched in
  check Alcotest.int "mismatched payloads stay direct" 1 stats2.Collective.direct_groups;
  check Alcotest.int "bytes preserved (mismatched)" (1024 + (4 * 4096)) (total_bytes plan2)

let test_non_group_ops_pass_through () =
  let machine = desktop () in
  let fabric = machine.Mgacc.Machine.fabric in
  let ops =
    [
      mk_op ~kind:Comm_manager.Miss_ship ~group:(-1) ~bytes:100 0 1;
      mk_op ~kind:Comm_manager.Halo_segment ~group:(-1) ~bytes:200 1 0;
    ]
  in
  let plan, stats = Collective.plan ~cfg:(cfg_for machine Rt_config.Auto) ~fabric ops in
  check Alcotest.int "two passthrough items" 2 (Array.length plan);
  check Alcotest.int "no groups at all" 0
    (stats.Collective.rings + stats.Collective.hierarchies + stats.Collective.direct_groups);
  Array.iteri
    (fun i (it : Collective.item) ->
      check Alcotest.int "level 0" 0 it.Collective.level;
      check Alcotest.int "no dep" (-1) it.Collective.dep;
      check Alcotest.int "bytes preserved" (List.nth ops i).Comm_manager.bytes it.Collective.bytes)
    plan

let test_execute_respects_deps () =
  (* Simulated finishes must respect the declared gates: no item finishes
     before the items it depends on. *)
  let machine = cluster4 () in
  let fabric = machine.Mgacc.Machine.fabric in
  let bytes = 2 * 1024 * 1024 in
  let plan, _ =
    Collective.plan ~cfg:(cfg_for machine Rt_config.Ring) ~fabric
      (star_group ~bytes machine)
  in
  let seen = Hashtbl.create 16 in
  Collective.execute ~plan ~batch:(Fabric.batch ())
    ~base:(fun _ -> (0.0, []))
    ~run:(Fabric.run fabric)
    ~on_complete:(fun it b k -> Hashtbl.replace seen it (Float.Array.get b.Fabric.finish k))
    ();
  check Alcotest.int "every item completed" (Array.length plan) (Hashtbl.length seen);
  Array.iter
    (fun (it : Collective.item) ->
      let fin = Hashtbl.find seen it in
      let gate d = if d >= 0 then Hashtbl.find seen plan.(d) else 0.0 in
      check Alcotest.bool "finish after dep" true
        (fin +. 1e-12 >= gate it.Collective.dep && fin +. 1e-12 >= gate it.Collective.dep2))
    plan

(* ---------------- planning is pure; the runtime reuses plans ---------------- *)

let machine_of spec =
  match Mgacc.Machine.spec_of_string spec with
  | Ok s -> Mgacc.Machine.of_spec s
  | Error e -> failwith e

(* Every shape the planner handles, on any machine with n >= 2 GPUs: a
   large and a small broadcast, an allreduce (whose hierarchical lowering
   walks a Hashtbl), a binomial tree and point-to-point ops. *)
let mixed_ops n =
  let others root = List.filter (fun g -> g <> root) (List.init n Fun.id) in
  List.map (fun d -> mk_op ~group:1 ~bytes:(8 * 1024 * 1024) 0 d) (others 0)
  @ List.map (fun d -> mk_op ~group:2 ~bytes:64 (n - 1) d) (others (n - 1))
  @ List.map
      (fun s -> mk_op ~kind:Comm_manager.Red_gather ~group:3 ~bytes:(4 * 1024 * 1024) s 0)
      (others 0)
  @ List.map
      (fun d -> mk_op ~kind:Comm_manager.Red_bcast ~group:3 ~bytes:(4 * 1024 * 1024) 0 d)
      (others 0)
  @ List.filter_map
      (fun (round, s, d) ->
        if d < n then Some (mk_op ~kind:Comm_manager.Red_bcast ~round ~group:4 ~bytes:512 s d)
        else None)
      [ (0, 0, 1); (1, 0, 2); (1, 1, 3) ]
  @ [
      mk_op ~kind:Comm_manager.Miss_ship ~group:(-1) ~bytes:100 0 1;
      mk_op ~kind:Comm_manager.Halo_segment ~group:(-1) ~bytes:200 1 0;
    ]

(* The same ops as fresh records with fresh strings: structurally equal,
   physically shared with nothing. *)
let deep_copy ops =
  List.map
    (fun (op : Comm_manager.op) ->
      {
        op with
        Comm_manager.tag = String.init (String.length op.Comm_manager.tag) (String.get op.tag);
        array = String.init (String.length op.Comm_manager.array) (String.get op.array);
      })
    ops

let test_plan_is_pure () =
  (* The runtime reuses a site's plan when its ops repeat; that is sound
     only if planning depends on nothing but (mode, fabric, ops). *)
  let shapes = ref Collective.no_stats in
  List.iter
    (fun spec ->
      let machine = machine_of spec in
      let fabric = machine.Mgacc.Machine.fabric in
      let ops = mixed_ops (Mgacc.Machine.num_gpus machine) in
      let copy = deep_copy ops in
      check Alcotest.bool "the copy shares no record" false (List.hd ops == List.hd copy);
      List.iter
        (fun mode ->
          let cfg = cfg_for machine mode in
          let name what =
            Printf.sprintf "%s %s: %s" spec (collective_switch.Rt_config.read cfg) what
          in
          let ((_, stats) as first) = Collective.plan ~cfg ~fabric ops in
          shapes := Collective.add_stats !shapes stats;
          check Alcotest.bool (name "planning twice gives equal plans") true
            (first = Collective.plan ~cfg ~fabric ops);
          check Alcotest.bool (name "an equal op list gives an equal plan") true
            (first = Collective.plan ~cfg ~fabric copy))
        [ Rt_config.Direct; Rt_config.Ring; Rt_config.Auto ])
    [ "desktop"; "cluster:2x2"; "fattree:4x4" ];
  let { Collective.rings; hierarchies; direct_groups; allreduces; _ } = !shapes in
  check Alcotest.bool "every lowering was exercised" true
    (rings > 0 && hierarchies > 0 && direct_groups > 0 && allreduces > 0)

(* Multi-iteration spmv on a 16-GPU fat tree under auto collectives,
   driven through [Acc_runtime.create]/[execute]; [seed] pre-fills the
   session's plan table. *)
let spmv_session ?(seed = []) ~overlap () =
  let app = Spmv.app { Spmv.rows = 2048; width = 6; iterations = 4; seed = 7 } in
  let program = Mgacc.parse_string ~name:"spmv.c" app.App_common.source in
  let cfg =
    Rt_config.make ~collective:Rt_config.Auto ~overlap (machine_of "fattree:4x4")
  in
  let s =
    Mgacc.Acc_runtime.create cfg
      (Mgacc.Program_plan.build ~options:cfg.Rt_config.translator program)
  in
  List.iter (fun (site, entry) -> Hashtbl.replace s.Mgacc.Session.collectives site entry) seed;
  ignore (Mgacc.Acc_runtime.execute s);
  (s, Mgacc.Acc_runtime.report s)

let entries (s : Mgacc.Session.t) =
  Hashtbl.fold (fun site entry acc -> (site, entry) :: acc) s.Mgacc.Session.collectives []

let test_plans_reused_per_site () =
  List.iter
    (fun overlap ->
      let first, report = spmv_session ~overlap () in
      (* One entry per (site, wave): the barrier ships once per launch,
         the overlap gate in two waves. *)
      let sites = Hashtbl.length first.Mgacc.Session.compiled in
      let waves = if overlap then [ 1; 2 ] else [ 1 ] in
      let table = entries first in
      check Alcotest.int "one entry per (site, wave)" (sites * List.length waves)
        (List.length table);
      List.iter
        (fun ((_, wave), _) ->
          check Alcotest.bool "a wave the gate ships" true (List.mem wave waves))
        table;
      check Alcotest.bool "spmv plans a collective" true
        (List.exists (fun (_, (_, (plan, _))) -> Array.length plan > 0) table);
      (* A session seeded with those entries sees the same ops at every
         launch and so never plans: each entry still holds the very plan
         it was seeded with, and the run is the same run. *)
      let reused, report' = spmv_session ~seed:table ~overlap () in
      List.iter
        (fun (site, (_, planned)) ->
          let _, planned' = Hashtbl.find reused.Mgacc.Session.collectives site in
          check Alcotest.bool "later launches reuse the plan physically" true (planned' == planned))
        table;
      check Alcotest.bool "reuse leaves the report unchanged" true (report = report');
      (* Seeded with the same plans under op lists that differ in one op's
         bytes or destination, every launch re-plans: the entries hold
         fresh plans equal to the real ones, and the run is unchanged. *)
      let alter i (op : Comm_manager.op) =
        match op.Comm_manager.dir with
        | Fabric.P2p (a, b) when i mod 2 = 1 ->
            { op with Comm_manager.dir = Fabric.P2p (a, (b + 1) mod 16) }
        | _ -> { op with Comm_manager.bytes = op.Comm_manager.bytes + 1 }
      in
      let stale =
        List.mapi
          (fun i (site, (ops, planned)) ->
            (site, ((match ops with [] -> [] | op :: rest -> alter i op :: rest), planned)))
          table
      in
      let replanned, report'' = spmv_session ~seed:stale ~overlap () in
      List.iter
        (fun (site, (ops, planned)) ->
          let ops', planned' = Hashtbl.find replanned.Mgacc.Session.collectives site in
          check Alcotest.bool "the entry holds the real ops" true (ops' = ops);
          if ops <> [] then
            check Alcotest.bool "a changed op list re-plans" false (planned' == planned);
          check Alcotest.bool "the fresh plan equals the first session's" true
            (planned' = planned))
        table;
      check Alcotest.bool "a stale entry leaves the report unchanged" true (report = report''))
    [ false; true ]

(* ---------------- the reuse check ---------------- *)

let test_reuse_check_is_field_by_field () =
  (* The runtime reuses a site's plan when [Comm_manager.equal_ops] holds
     between its last ops and this launch's, so the check must see
     through fresh strings and see any single changed field. *)
  let ops = mixed_ops 4 in
  let copy = deep_copy ops in
  let head = List.hd ops and head' = List.hd copy in
  check Alcotest.bool "the copy's strings are fresh" false
    (head.Comm_manager.tag == head'.Comm_manager.tag
    || head.Comm_manager.array == head'.Comm_manager.array);
  check Alcotest.bool "equal to its deep copy" true (Comm_manager.equal_ops ops copy);
  check Alcotest.bool "unequal to a shorter list" false
    (Comm_manager.equal_ops ops (List.tl copy));
  let other_kind = function
    | Comm_manager.Dirty_chunk -> Comm_manager.Miss_ship
    | Miss_ship -> Halo_segment
    | Halo_segment -> Red_gather
    | Red_gather -> Red_bcast
    | Red_bcast -> Dirty_chunk
  in
  let changes =
    [
      ( "dir source",
        fun (op : Comm_manager.op) ->
          match op.Comm_manager.dir with
          | Fabric.P2p (s, d) -> { op with Comm_manager.dir = Fabric.P2p (s + 1, d) }
          | Fabric.H2d g -> { op with dir = Fabric.H2d (g + 1) }
          | Fabric.D2h g -> { op with dir = Fabric.D2h (g + 1) } );
      ( "dir destination",
        fun op ->
          match op.Comm_manager.dir with
          | Fabric.P2p (s, d) -> { op with Comm_manager.dir = Fabric.P2p (s, d + 1) }
          | Fabric.H2d g | Fabric.D2h g -> { op with dir = Fabric.P2p (g, g) } );
      ( "dir kind",
        fun op ->
          match op.Comm_manager.dir with
          | Fabric.P2p (_, d) -> { op with Comm_manager.dir = Fabric.H2d d }
          | Fabric.H2d g -> { op with dir = Fabric.D2h g }
          | Fabric.D2h g -> { op with dir = Fabric.H2d g } );
      ("bytes", fun op -> { op with Comm_manager.bytes = op.Comm_manager.bytes + 1 });
      ("tag", fun op -> { op with Comm_manager.tag = op.Comm_manager.tag ^ "'" });
      ("array", fun op -> { op with Comm_manager.array = op.Comm_manager.array ^ "'" });
      ("kind", fun op -> { op with Comm_manager.kind = other_kind op.Comm_manager.kind });
      ("round", fun op -> { op with Comm_manager.round = op.Comm_manager.round + 1 });
      ("group", fun op -> { op with Comm_manager.group = op.Comm_manager.group + 1 });
    ]
  in
  let last = List.length copy - 1 in
  List.iter
    (fun (field, change) ->
      List.iter
        (fun at ->
          let changed = List.mapi (fun i op -> if i = at then change op else op) copy in
          check Alcotest.bool
            (Printf.sprintf "unequal when op %d's %s changes" at field)
            false
            (Comm_manager.equal_ops ops changed))
        [ 0; last / 2; last ])
    changes

(* ---------------- property: the planner against the reference planner ---------------- *)

(* Machines of every fabric flavor and node shape, from 2 to 64 GPUs. *)
let oracle_specs =
  [|
    "desktop"; "desktop-mixed"; "supernode"; "cluster:2x2"; "cluster:3x3"; "fattree:4x4";
    "fattree:3x5"; "fattree:16x4"; "multirail:2x4"; "nvmesh:2x4";
  |]

let oracle_machines = lazy (Array.map machine_of oracle_specs)

(* Payloads log-uniform over 1 B .. 64 MiB, or within 2 bytes of a
   multiple of the 4 KiB segment floor: both sides of every star, ring
   and hierarchy crossover and of the segment-count cuts. *)
let gen_payload =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun e m -> (1 lsl e) + ((1 lsl e) * m / 1024)) (int_bound 25) (int_bound 1023);
        map2 (fun k d -> max 1 ((k * 4096) + d)) (int_range 1 4096) (int_range (-2) 2);
      ])

(* One group's ops. Well-formed: a star broadcast, binomial-tree rounds
   of [Red_bcast], or an allreduce (gathers to the root plus a star or
   tree of the result). Malformed: one of those with a duplicate
   destination, an unequal payload, an [H2d] op, a second root or zero
   bytes. Tags vary per destination in some groups. *)
let gen_group n group =
  let open QCheck2.Gen in
  let* root = int_bound (n - 1) in
  let* shuffled = shuffle_l (List.filter (fun g -> g <> root) (List.init n Fun.id)) in
  let* k = int_range 1 (n - 1) in
  let members = List.filteri (fun i _ -> i < k) shuffled in
  let* bytes = gen_payload in
  let* per_dst_tags = bool in
  let tag d = if per_dst_tags then Printf.sprintf "g%d:%d" group (d mod 3) else Printf.sprintf "g%d" group in
  let op ?(kind = Comm_manager.Dirty_chunk) ?(round = 0) ?(bytes = bytes) dir =
    let d = match dir with Fabric.P2p (_, d) | Fabric.H2d d | Fabric.D2h d -> d in
    { Comm_manager.dir; bytes; tag = tag d; array = "a"; kind; round; group }
  in
  let star kind = List.map (fun d -> op ~kind (Fabric.P2p (root, d))) members in
  let tree () =
    (* round r: every GPU holding the payload sends to one that does not *)
    let rec rounds r holders rest acc =
      if rest = [] then List.rev acc
      else
        let rec pair hs rest acc new_holders =
          match (hs, rest) with
          | h :: hs, d :: rest ->
              pair hs rest (op ~kind:Comm_manager.Red_bcast ~round:r (Fabric.P2p (h, d)) :: acc)
                (d :: new_holders)
          | _ -> (rest, acc, new_holders)
        in
        let rest, acc, fresh = pair holders rest acc [] in
        rounds (r + 1) (holders @ List.rev fresh) rest acc
    in
    rounds 0 [ root ] members []
  in
  let gathers () =
    List.map (fun s -> op ~kind:Comm_manager.Red_gather (Fabric.P2p (s, root))) members
  in
  let* shape = int_bound 5 in
  let* result_tree = bool in
  let* gather_order = shuffle_l (gathers ()) in
  let base =
    match shape with
    | 0 -> star Comm_manager.Dirty_chunk
    | 1 -> star Comm_manager.Red_bcast
    | 2 -> tree ()
    | _ ->
        gather_order
        @ if result_tree then tree () else star Comm_manager.Red_bcast
  in
  let* flaw = int_bound 9 in
  let* at = int_bound (List.length base - 1) in
  let flawed =
    match flaw with
    | 0 -> (* duplicate destination *) base @ [ List.nth base at ]
    | 1 ->
        (* unequal payload *)
        List.mapi (fun i (o : Comm_manager.op) -> if i = at then { o with bytes = o.bytes + 1 } else o) base
    | 2 ->
        (* an H2d op *)
        List.mapi
          (fun i (o : Comm_manager.op) ->
            match o.Comm_manager.dir with
            | Fabric.P2p (_, d) when i = at -> { o with dir = Fabric.H2d d }
            | _ -> o)
          base
    | 3 -> (
        (* a second root: some GPU outside the group sends to a member *)
        match List.filter (fun g -> g <> root && not (List.mem g members)) (List.init n Fun.id) with
        | s :: _ -> base @ [ op (Fabric.P2p (s, List.hd members)) ]
        | [] -> base)
    | 4 -> (* zero bytes *) List.map (fun (o : Comm_manager.op) -> { o with bytes = 0 }) base
    | _ -> base
  in
  return flawed

let gen_ungrouped n =
  let open QCheck2.Gen in
  let* kind = oneofl [ Comm_manager.Miss_ship; Comm_manager.Halo_segment; Comm_manager.Dirty_chunk ] in
  let* s = int_bound (n - 1) in
  let* d = int_bound (n - 2) in
  let* dir =
    oneofl [ Fabric.P2p (s, if d >= s then d + 1 else d); Fabric.H2d s; Fabric.D2h s ]
  in
  let* bytes = gen_payload in
  return { Comm_manager.dir; bytes; tag = "u"; array = "u"; kind; round = 0; group = -1 }

(* A machine index and its op list: 1-5 groups as blocks with ungrouped
   ops between them, the blocks in random order, sometimes every op
   shuffled. *)
let gen_oracle_case =
  let open QCheck2.Gen in
  let* mi = int_bound (Array.length oracle_specs - 1) in
  let n = Mgacc.Machine.num_gpus (Lazy.force oracle_machines).(mi) in
  let* groups = int_range 1 5 in
  let* blocks = flatten_l (List.init groups (fun g -> gen_group n (g + 1))) in
  let* loose = list_size (int_bound 4) (map (fun op -> [ op ]) (gen_ungrouped n)) in
  let* blocks = shuffle_l (blocks @ loose) in
  let* scramble = int_bound 3 in
  let ops = List.concat blocks in
  let* ops = if scramble = 0 then shuffle_l ops else return ops in
  return (mi, ops)

let show_op (op : Comm_manager.op) =
  let dir =
    match op.Comm_manager.dir with
    | Fabric.P2p (s, d) -> Printf.sprintf "%d->%d" s d
    | Fabric.H2d g -> Printf.sprintf "h2d%d" g
    | Fabric.D2h g -> Printf.sprintf "d2h%d" g
  in
  let kind =
    match op.Comm_manager.kind with
    | Comm_manager.Dirty_chunk -> "chunk"
    | Miss_ship -> "miss"
    | Halo_segment -> "halo"
    | Red_gather -> "gather"
    | Red_bcast -> "bcast"
  in
  Printf.sprintf "g%d %s %s %dB r%d %s" op.Comm_manager.group kind dir op.Comm_manager.bytes
    op.Comm_manager.round op.Comm_manager.tag

let show_oracle_case (mi, ops) =
  Printf.sprintf "%s: [%s]" oracle_specs.(mi) (String.concat "; " (List.map show_op ops))

(* The first item or stat where the two plans differ, if any; the items'
   ops compared by physical identity. *)
let plan_difference (items, stats) (ref_items, ref_stats) =
  let same (a : Collective.item) (b : Collective.item) =
    a.Collective.dir = b.Collective.dir && a.bytes = b.bytes && String.equal a.tag b.tag
    && a.level = b.level && a.dep = b.dep && a.dep2 = b.dep2 && a.op == b.op
  in
  let show (it : Collective.item) =
    Printf.sprintf "{%s; %dB; %s; level %d; dep %d; dep2 %d}" (show_op it.Collective.op)
      it.Collective.bytes it.Collective.tag it.Collective.level it.Collective.dep
      it.Collective.dep2
  in
  if stats <> ref_stats then Some "stats differ"
  else if Array.length items <> Array.length ref_items then
    Some (Printf.sprintf "%d items, reference %d" (Array.length items) (Array.length ref_items))
  else
    let rec go i =
      if i = Array.length items then None
      else if same items.(i) ref_items.(i) then go (i + 1)
      else Some (Printf.sprintf "item %d: %s, reference %s" i (show items.(i)) (show ref_items.(i)))
    in
    go 0

let prop_planner_matches_reference (mi, ops) =
  let machine = (Lazy.force oracle_machines).(mi) in
  let fabric = machine.Mgacc.Machine.fabric in
  List.for_all
    (fun mode ->
      let cfg = cfg_for machine mode in
      match
        plan_difference (Collective.plan ~cfg ~fabric ops) (Ref_collective.plan ~cfg ~fabric ops)
      with
      | None -> true
      | Some why ->
          QCheck2.Test.fail_reportf "%s, %s" (collective_switch.Rt_config.read cfg) why)
    [ Rt_config.Direct; Rt_config.Ring; Rt_config.Auto ]

(* ---------------- property: conservation under random groups ---------------- *)

let prop_plan_conserves_bytes (mode_i, payload, dst_count) =
  let machine = cluster4 () in
  let fabric = machine.Mgacc.Machine.fabric in
  let mode =
    match mode_i mod 3 with
    | 0 -> Rt_config.Direct
    | 1 -> Rt_config.Ring
    | _ -> Rt_config.Auto
  in
  let dsts = 1 + (dst_count mod 3) in
  let ops = List.init dsts (fun i -> mk_op ~group:1 ~bytes:payload 0 (i + 1)) in
  let plan, _ = Collective.plan ~cfg:(cfg_for machine mode) ~fabric ops in
  total_bytes plan = dsts * payload
  && List.for_all (fun d -> delivered_bytes plan d = payload) (List.init dsts (fun i -> i + 1))
  && deps_well_formed plan

(* ---------------- tree edges wait for their payload ---------------- *)

(* The GPU ends of a peer transfer's trace resource, "pcie:p2p<src>-<dst>". *)
let p2p_ends resource = Scanf.sscanf_opt resource "pcie:p2p%d-%d%!" (fun src dst -> (src, dst))

let test_tree_edges_wait_for_payload () =
  (* The golden corpus's binomial-tree broadcast on four GPUs: an edge out
     of a GPU other than the root forwards the copy that GPU received, so
     it may not start before that copy has landed, under either gate and
     whether or not the planner may reshape the group. *)
  List.iter
    (fun settings ->
      let what = String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) settings) in
      let config =
        List.fold_left Golden_corpus.apply
          (Rt_config.make (Golden_corpus.machine_of "cluster:2x2"))
          (("coherence", "lazy") :: settings)
      in
      ignore
        (Mgacc.run_acc ~config (Mgacc.parse_string ~name:"tree.c" Golden_corpus.tree_source));
      (* Each GPU's latest broadcast arrival so far, in recording order. *)
      let arrived = Hashtbl.create 4 and forwarded = ref 0 in
      List.iter
        (fun (s : Mgacc.Trace.span) ->
          match p2p_ends s.Mgacc.Trace.resource with
          | Some (src, dst) when List.mem "red-bcast" (String.split_on_char ':' s.Mgacc.Trace.label)
            ->
              Option.iter
                (fun landed ->
                  incr forwarded;
                  check Alcotest.bool
                    (Printf.sprintf "%s: edge %d->%d starts at %h, after its payload lands at %h"
                       what src dst s.Mgacc.Trace.start landed)
                    true
                    (s.Mgacc.Trace.start >= landed))
                (Hashtbl.find_opt arrived src);
              Hashtbl.replace arrived dst s.Mgacc.Trace.finish
          | _ -> ())
        (Mgacc.Trace.spans config.Rt_config.machine.Mgacc.Machine.trace);
      check Alcotest.bool (what ^ ": some edge forwards a received copy") true (!forwarded > 0))
    (List.concat_map
       (fun collective ->
         List.map
           (fun overlap -> [ ("collective", collective); ("overlap", overlap) ])
           [ "off"; "on" ])
       [ "direct"; "auto" ])

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let suite =
  [
    tc "direct mode is bit-identical to the default" test_direct_is_the_default;
    tc "ring/auto results match sequential (cluster)" test_planned_results_match_sequential;
    tc "ring/auto results match sequential (single node)" test_planned_results_single_node;
    tc "ring conserves bytes per destination" test_ring_conserves_bytes;
    tc "ring crosses the wire once per node boundary" test_ring_minimizes_wire_crossings;
    tc "auto keeps latency-bound groups direct" test_auto_keeps_small_payloads_direct;
    tc "auto beats direct on the cluster" test_auto_beats_direct_on_cluster;
    tc "direct-kept trees carry explicit deps" test_tree_group_keeps_explicit_deps;
    tc "ring allreduce: reduce-scatter + all-gather" test_allreduce_ring_schedule;
    tc "auto allreduce beats the star pair on the cluster" test_allreduce_auto_beats_star_on_cluster;
    tc "malformed allreduce groups stay direct" test_allreduce_malformed_stays_direct;
    tc "non-group ops pass through untouched" test_non_group_ops_pass_through;
    tc "execute respects plan dependencies" test_execute_respects_deps;
    tc "planning is a pure function of (mode, fabric, ops)" test_plan_is_pure;
    tc "each (site, wave) plans once and re-plans on change" test_plans_reused_per_site;
    tc "reuse check: equal through fresh strings, unequal on any field" test_reuse_check_is_field_by_field;
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~long_factor:10 ~name:"planner == reference planner"
         ~print:show_oracle_case gen_oracle_case prop_planner_matches_reference);
    qtest "plans conserve payload bytes"
      QCheck2.Gen.(triple (int_bound 5) (int_range 1 4_000_000) (int_bound 5))
      prop_plan_conserves_bytes;
    tc "tree edges leave after their payload lands" test_tree_edges_wait_for_payload;
  ]
