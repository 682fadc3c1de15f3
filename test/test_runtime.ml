(* Tests for the runtime building blocks: task mapping, dirty bits, miss
   buffers, device-array state machine, reductions, profiler. *)

module Interval = Mgacc_util.Interval
module Memory = Mgacc_gpusim.Memory
module Machine = Mgacc_gpusim.Machine
open Mgacc_runtime

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---------------- Task map ---------------- *)

let test_split_even () =
  let r = Task_map.split ~lower:0 ~upper:12 ~parts:3 in
  check Alcotest.int "parts" 3 (Array.length r);
  Array.iter (fun x -> check Alcotest.int "even size" 4 (Task_map.length x)) r;
  check Alcotest.int "starts at lower" 0 r.(0).Task_map.start_;
  check Alcotest.int "ends at upper" 12 r.(2).Task_map.stop_

let test_split_remainder () =
  let r = Task_map.split ~lower:5 ~upper:15 ~parts:3 in
  (* 10 iterations over 3 parts: sizes 4,3,3; contiguous cover. *)
  check Alcotest.int "sizes differ by at most one" 1
    (Task_map.length r.(0) - Task_map.length r.(2));
  let total = Array.fold_left (fun acc x -> acc + Task_map.length x) 0 r in
  check Alcotest.int "covers everything" 10 total;
  Array.iteri
    (fun i x -> if i > 0 then check Alcotest.int "contiguous" r.(i - 1).Task_map.stop_ x.Task_map.start_)
    r

let test_split_more_parts_than_work () =
  let r = Task_map.split ~lower:0 ~upper:2 ~parts:4 in
  let total = Array.fold_left (fun acc x -> acc + Task_map.length x) 0 r in
  check Alcotest.int "total" 2 total

let test_window () =
  let r = { Task_map.start_ = 10; stop_ = 20 } in
  let w = Task_map.window r ~stride:3 ~left:2 ~right:4 ~max_len:100 in
  check Alcotest.int "lo" 28 w.Interval.lo;
  check Alcotest.int "hi" 64 w.Interval.hi;
  let clamped = Task_map.window r ~stride:3 ~left:50 ~right:0 ~max_len:40 in
  check Alcotest.int "clamped lo" 0 clamped.Interval.lo;
  check Alcotest.int "clamped hi" 40 clamped.Interval.hi

(* ---------------- Dirty bits ---------------- *)

let mk_mem () = Memory.create ~device_id:0 ~capacity:(64 * 1024 * 1024)

let test_dirty_two_level () =
  let mem = mk_mem () in
  (* 1000 doubles, 256-byte chunks -> 32 elements per chunk. *)
  let d = Dirty.create mem ~elem_bytes:8 ~length:1000 ~chunk_bytes:256 ~two_level:true in
  check Alcotest.bool "clean" false (Dirty.any_dirty d);
  check Alcotest.int "chunks" 32 (Dirty.total_chunks d);
  Dirty.mark d 0;
  Dirty.mark d 1;
  Dirty.mark d 999;
  Dirty.mark d 999;
  check Alcotest.int "elements" 3 (Dirty.dirty_element_count d);
  check Alcotest.int "two chunks dirty" 2 (Dirty.dirty_chunk_count d);
  (* chunk 0: 32 elems -> 256B payload + 4B bits; last chunk: 1000-31*32=8
     elems -> 64B + 1B. *)
  check Alcotest.int "transfer bytes" (256 + 4 + 64 + 1) (Dirty.transfer_bytes d);
  let runs = Interval.Set.to_list (Dirty.dirty_runs d) in
  check Alcotest.int "runs" 2 (List.length runs);
  Dirty.clear d;
  check Alcotest.bool "cleared" false (Dirty.any_dirty d);
  check Alcotest.int "cleared bytes" 0 (Dirty.transfer_bytes d);
  Dirty.free mem d;
  check Alcotest.int "freed" 0 (Memory.used mem)

let test_dirty_single_level () =
  let mem = mk_mem () in
  let d = Dirty.create mem ~elem_bytes:4 ~length:1024 ~chunk_bytes:512 ~two_level:false in
  Dirty.mark d 7;
  (* One-level: whole payload + whole bit array regardless of sparsity. *)
  check Alcotest.int "full transfer" ((1024 * 4) + 128) (Dirty.transfer_bytes d);
  Dirty.free mem d

let test_dirty_footprint_accounted () =
  let mem = mk_mem () in
  let before = Memory.used_class mem `System in
  let d = Dirty.create mem ~elem_bytes:8 ~length:8192 ~chunk_bytes:1024 ~two_level:true in
  check Alcotest.bool "system memory charged" true (Memory.used_class mem `System > before);
  check Alcotest.int "footprint matches accounting"
    (Memory.used_class mem `System - before)
    (Dirty.footprint_bytes d);
  Dirty.free mem d

(* ---------------- Miss buffer ---------------- *)

let test_miss_buffer () =
  let mem = mk_mem () in
  let b = Miss_buffer.create mem ~name:"a" ~elem_bytes:8 in
  check Alcotest.bool "empty" true (Miss_buffer.is_empty b);
  Miss_buffer.record b 5 (Miss_buffer.Vf 1.5);
  Miss_buffer.record b 9 (Miss_buffer.Vf 2.5);
  check Alcotest.int "count" 2 (Miss_buffer.count b);
  check Alcotest.int "payload" 24 (Miss_buffer.payload_bytes b);
  (match Miss_buffer.entries b with
  | [ (5, Miss_buffer.Vf a); (9, Miss_buffer.Vf c) ] ->
      check (Alcotest.float 1e-12) "order preserved" 1.5 a;
      check (Alcotest.float 1e-12) "second" 2.5 c
  | _ -> Alcotest.fail "entries");
  check Alcotest.bool "device accounted" true (Memory.used_class mem `System > 0);
  Miss_buffer.drain b;
  check Alcotest.bool "drained" true (Miss_buffer.is_empty b);
  check Alcotest.int "memory released" 0 (Memory.used_class mem `System);
  check Alcotest.bool "peak kept" true (Miss_buffer.peak_bytes b > 0)

(* ---------------- Darray state machine ---------------- *)

let mk_cfg ?(num_gpus = 2) () = Rt_config.make ~num_gpus (Machine.desktop ())

let mk_da cfg name data =
  Darray.create cfg ~name ~host:(Mgacc_exec.View.of_float_array ~name data)

let xfer_bytes xs = List.fold_left (fun acc (x : Darray.xfer) -> acc + x.Darray.bytes) 0 xs

let test_darray_replicate_and_reuse () =
  let cfg = mk_cfg () in
  let da = mk_da cfg "a" (Array.init 100 float_of_int) in
  let xfers = Darray.ensure_replicated cfg da ~dirty_tracking:true in
  check Alcotest.int "load both gpus" (2 * 800) (xfer_bytes xfers);
  check Alcotest.string "state" "replicated" (Darray.state_name da);
  (* Second call: reuse, no transfers. *)
  check Alcotest.int "reuse" 0 (xfer_bytes (Darray.ensure_replicated cfg da ~dirty_tracking:true));
  (* Data actually present on both GPUs. *)
  let r = Darray.replica_of da in
  check (Alcotest.float 1e-12) "gpu0 content" 42.0 (Memory.float_data r.Darray.bufs.(0)).(42);
  check (Alcotest.float 1e-12) "gpu1 content" 42.0 (Memory.float_data r.Darray.bufs.(1)).(42)

let test_darray_distribute_windows () =
  let cfg = mk_cfg () in
  let da = mk_da cfg "a" (Array.init 100 float_of_int) in
  let ranges = Task_map.split ~lower:0 ~upper:100 ~parts:2 in
  let spec = { Darray.stride = 1; left = 1; right = 1; tile = None } in
  let xfers = Darray.ensure_distributed cfg da ~spec ~ranges in
  (* windows: [0,51) and [49,100): 51+51 elements. *)
  check Alcotest.int "window bytes" ((51 + 51) * 8) (xfer_bytes xfers);
  let p0 = Darray.part_for da ~gpu:0 and p1 = Darray.part_for da ~gpu:1 in
  check Alcotest.int "own split point" 50 p0.Darray.own.Interval.hi;
  check Alcotest.int "halo extends" 51 p0.Darray.window.Interval.hi;
  check Alcotest.int "p1 halo lo" 49 p1.Darray.window.Interval.lo;
  (* Reuse with identical split. *)
  check Alcotest.int "reuse" 0 (xfer_bytes (Darray.ensure_distributed cfg da ~spec ~ranges));
  (* Ownership. *)
  (match da.Darray.state with
  | Darray.Distributed d ->
      check Alcotest.int "owner of 0" 0 (Darray.owner_of d 0);
      check Alcotest.int "owner of 99" 1 (Darray.owner_of d 99);
      check Alcotest.int "owner of 49" 0 (Darray.owner_of d 49)
  | _ -> Alcotest.fail "not distributed");
  (* Content lands window-relative. *)
  let d1 = Memory.float_data p1.Darray.buf in
  check (Alcotest.float 1e-12) "gpu1 window content" 49.0 d1.(0)

let test_darray_transition_flushes () =
  let cfg = mk_cfg () in
  let host = Array.init 10 float_of_int in
  let da = mk_da cfg "a" host in
  let _ = Darray.ensure_replicated cfg da ~dirty_tracking:false in
  (* Simulate a device-side write on every replica (consistent copies). *)
  let r = Darray.replica_of da in
  Array.iter (fun buf -> (Memory.float_data buf).(3) <- 99.0) r.Darray.bufs;
  Darray.mark_device_written da;
  (* Transition to distributed must flush through the host. *)
  let ranges = Task_map.split ~lower:0 ~upper:10 ~parts:2 in
  let xfers = Darray.ensure_distributed cfg da ~spec:{ Darray.stride = 1; left = 0; right = 0; tile = None } ~ranges in
  check Alcotest.bool "host saw the write" true (host.(3) = 99.0);
  (* flush (80 bytes D2H) + reload (80 bytes H2D split across GPUs) *)
  check Alcotest.int "flush+reload bytes" 160 (xfer_bytes xfers);
  check Alcotest.string "now distributed" "distributed" (Darray.state_name da)

let test_darray_release_copyout () =
  let cfg = mk_cfg () in
  let host = Array.make 10 0.0 in
  let da = mk_da cfg "a" host in
  let _ = Darray.ensure_replicated cfg da ~dirty_tracking:false in
  let r = Darray.replica_of da in
  Array.iter (fun buf -> (Memory.float_data buf).(0) <- 7.0) r.Darray.bufs;
  Darray.mark_device_written da;
  da.Darray.needs_copyout <- true;
  let xfers = Darray.release cfg da in
  check Alcotest.bool "copied out" true (host.(0) = 7.0);
  check Alcotest.bool "transferred" true (xfer_bytes xfers > 0);
  check Alcotest.string "freed" "unallocated" (Darray.state_name da);
  (* All device memory returned. *)
  for g = 0 to 1 do
    check Alcotest.int "no leak" 0
      (Memory.used (Machine.device cfg.Rt_config.machine g).Mgacc_gpusim.Device.memory)
  done

let test_darray_halo_covering_reuse () =
  (* A resident distribution with wider halos must serve a narrower request
     without reloading (the alternating-stencil reuse); a wider request
     must reshape. *)
  let cfg = mk_cfg () in
  let da = mk_da cfg "a" (Array.init 100 float_of_int) in
  let ranges = Task_map.split ~lower:0 ~upper:100 ~parts:2 in
  let wide = { Darray.stride = 1; left = 2; right = 2; tile = None } in
  let narrow = { Darray.stride = 1; left = 0; right = 0; tile = None } in
  let x1 = Darray.ensure_distributed cfg da ~spec:wide ~ranges in
  check Alcotest.bool "initial load" true (xfer_bytes x1 > 0);
  check Alcotest.int "narrower request reuses" 0
    (xfer_bytes (Darray.ensure_distributed cfg da ~spec:narrow ~ranges));
  check Alcotest.bool "wider request reshapes" true
    (xfer_bytes
       (Darray.ensure_distributed cfg da ~spec:{ Darray.stride = 1; left = 5; right = 5; tile = None } ~ranges)
    > 0)

let test_halo_exchange_three_gpus () =
  (* The middle GPU of three owns a block with halos on both sides; after a
     write, both its halos must refresh from the two neighbors. *)
  let m = Machine.desktop () in
  ignore m;
  let machine = Mgacc_gpusim.Machine.supernode () in
  let cfg = Rt_config.make ~num_gpus:3 machine in
  let da = mk_da cfg "a" (Array.init 90 float_of_int) in
  let ranges = Task_map.split ~lower:0 ~upper:90 ~parts:3 in
  let spec = { Darray.stride = 1; left = 1; right = 1; tile = None } in
  let _ = Darray.ensure_distributed cfg da ~spec ~ranges in
  (* Write each GPU's own block functionally and mark written. *)
  (match da.Darray.state with
  | Darray.Distributed d ->
      Array.iter
        (fun (p : Darray.part) ->
          let data = Memory.float_data p.Darray.buf in
          let lo = p.Darray.window.Interval.lo in
          for i = p.Darray.own.Interval.lo to p.Darray.own.Interval.hi - 1 do
            data.(i - lo) <- 1000.0 +. float_of_int i
          done)
        d.Darray.parts
  | _ -> Alcotest.fail "not distributed");
  Darray.mark_device_written da;
  (* Build a fake plan context via the public comm manager API. *)
  let program =
    Mgacc.parse_string ~name:"t"
      {|void main() { int n = 90; double a[n]; int i;
#pragma acc parallel loop localaccess(a: stride(1, 1, 1))
for (i = 0; i < n; i++) { a[i] = 1.0; } }|}
  in
  let plans = Mgacc.compile program in
  let plan = List.hd (Mgacc.Program_plan.all_plans plans) in
  let result =
    Comm_manager.reconcile cfg plan
      ~get_darray:(fun _ -> da)
      ~reductions:[] ~wrote:(fun _ -> true)
      ~next_window:(fun _ -> Comm_manager.Cw_all)
  in
  (* Four halo segments refresh: gpu0<-1, gpu1<-0, gpu1<-2, gpu2<-1. *)
  let ops = result.Comm_manager.ops in
  check Alcotest.int "four halo transfers" 4 (List.length ops);
  check Alcotest.int "one element each" (4 * 8)
    (List.fold_left (fun acc (op : Comm_manager.op) -> acc + op.Comm_manager.bytes) 0 ops);
  (* The middle GPU's halos now hold the neighbors' fresh values. *)
  match da.Darray.state with
  | Darray.Distributed d ->
      let p1 = d.Darray.parts.(1) in
      let data = Memory.float_data p1.Darray.buf in
      let lo = p1.Darray.window.Interval.lo in
      check (Alcotest.float 1e-12) "left halo fresh" (1000.0 +. 29.0) data.(29 - lo);
      check (Alcotest.float 1e-12) "right halo fresh" (1000.0 +. 60.0) data.(60 - lo)
  | _ -> Alcotest.fail "not distributed"

let test_miss_records_preserve_order () =
  (* Two writes to the same missed element: the later one must win after
     replay (program order per writing GPU). *)
  let src =
    {|void main() {
        int n = 100; double a[n]; int i;
        for (i = 0; i < n; i++) { a[i] = 0.0; }
        #pragma acc data copy(a[0:n])
        {
          #pragma acc parallel loop localaccess(a: stride(1, 0, 0))
          for (i = 0; i < n; i++) {
            if (i == 60) { a[0] = 1.0; a[0] = 2.0; }
          }
        }
      }|}
  in
  let config = Rt_config.make ~num_gpus:2 (Machine.desktop ()) in
  let env, _ = Mgacc.run_acc ~config (Mgacc.parse_string ~name:"t" src) in
  check (Alcotest.float 1e-12) "last write wins" 2.0 (Mgacc.float_results env "a").(0)

(* ---------------- Profiler ---------------- *)

let test_profiler () =
  let p = Profiler.create () in
  let charge cat ~seconds ~bytes =
    Profiler.charge p cat ~label:"x" ~exposed:seconds ~hidden:0.0 ~bytes ~spans:[]
  in
  charge Mgacc_obs.Blame.Cpu_gpu ~seconds:1.0 ~bytes:100;
  charge Mgacc_obs.Blame.Gpu_gpu ~seconds:0.5 ~bytes:50;
  charge Mgacc_obs.Blame.Kernel ~seconds:2.0 ~bytes:0;
  charge Mgacc_obs.Blame.Overhead ~seconds:0.25 ~bytes:0;
  check Alcotest.int "bytes" 100 p.Profiler.cpu_gpu_bytes;
  check Alcotest.int "one ledger epoch per charge" 4
    (List.length (Mgacc_obs.Blame.epochs p.Profiler.ledger));
  Profiler.incr_loops p;
  Profiler.incr_kernel_launches p;
  check Alcotest.int "loops" 1 p.Profiler.loops;
  let r = Report.of_profiler p ~machine:"m" ~variant:"v" ~num_gpus:2 in
  check (Alcotest.float 1e-12) "total" 3.75 r.Report.total_time;
  check (Alcotest.float 1e-12) "gpu-gpu" 0.5 r.Report.gpu_gpu_time;
  check Alcotest.int "report bytes" 50 r.Report.gpu_gpu_bytes;
  check Alcotest.int "launches" 1 r.Report.launches

(* A tally only grows: a negative time, byte count or count is refused
   before anything is recorded. *)
let test_profiler_rejects_negative () =
  let p = Profiler.create () in
  let raises what f = Alcotest.check_raises what (Invalid_argument ("Profiler: negative " ^ what)) f in
  raises "exposed seconds" (fun () ->
      Profiler.charge p Mgacc_obs.Blame.Kernel ~label:"k" ~exposed:(-1e-9) ~hidden:0.0 ~bytes:0
        ~spans:[]);
  raises "bytes" (fun () ->
      Profiler.charge p Mgacc_obs.Blame.Cpu_gpu ~label:"h2d" ~exposed:0.0 ~hidden:0.0 ~bytes:(-1)
        ~spans:[]);
  raises "wire bytes" (fun () -> Profiler.add_wire_bytes p ~bytes:(-1));
  raises "prefetch hits" (fun () -> Profiler.add_prefetch_hits p ~count:(-1));
  raises "segments" (fun () ->
      Profiler.add_collective p ~rings:0 ~hierarchies:0 ~direct_groups:0 ~segments:(-1));
  raises "spilled bytes" (fun () -> Profiler.add_spill p ~bytes:(-1));
  raises "imbalance" (fun () -> Profiler.add_imbalance p ~ratio:(-0.5));
  check Alcotest.int "nothing charged" 0 (List.length (Mgacc_obs.Blame.epochs p.Profiler.ledger))

let suite =
  [
    tc "task map: even split" test_split_even;
    tc "task map: remainder spread" test_split_remainder;
    tc "task map: more parts than work" test_split_more_parts_than_work;
    tc "task map: localaccess window" test_window;
    tc "dirty: two-level transfer planning" test_dirty_two_level;
    tc "dirty: single-level ships everything" test_dirty_single_level;
    tc "dirty: system memory accounting" test_dirty_footprint_accounted;
    tc "miss buffer: record/drain/peak" test_miss_buffer;
    tc "darray: replicate, reuse, content" test_darray_replicate_and_reuse;
    tc "darray: distribution windows and owners" test_darray_distribute_windows;
    tc "darray: placement transition flushes" test_darray_transition_flushes;
    tc "darray: release with copyout" test_darray_release_copyout;
    tc "darray: halo-covering reuse" test_darray_halo_covering_reuse;
    tc "comm: three-GPU halo exchange" test_halo_exchange_three_gpus;
    tc "comm: miss records preserve program order" test_miss_records_preserve_order;
    tc "profiler: accumulation" test_profiler;
    tc "profiler: negative increments raise" test_profiler_rejects_negative;
  ]
