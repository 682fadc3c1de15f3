(* Tests for the runtime building blocks: task mapping, dirty bits, miss
   buffers, device-array state machine, reductions, profiler. *)

module Interval = Mgacc_util.Interval
module Pool = Mgacc_util.Pool
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
  let dirty_elements =
    List.concat_map
      (fun (r : Interval.t) -> List.init (Interval.length r) (fun k -> r.Interval.lo + k))
      (Interval.Set.to_list (Dirty.dirty_runs d))
  in
  check Alcotest.int "elements" 3 (List.length dirty_elements);
  check Alcotest.int "two chunks dirty" 2
    (List.length (List.sort_uniq compare (List.map (fun i -> i / 32) dirty_elements)));
  (* chunk 0: 32 elems -> 256B payload + 4B bits; last chunk: 1000-31*32=8
     elems -> 64B + 1B. *)
  check Alcotest.int "transfer bytes" (256 + 4 + 64 + 1) (Dirty.transfer_bytes d);
  let runs = Interval.Set.to_list (Dirty.dirty_runs d) in
  check Alcotest.int "runs" 2 (List.length runs);
  Dirty.clear d;
  check Alcotest.bool "cleared" false (Dirty.any_dirty d);
  check Alcotest.int "cleared bytes" 0 (Dirty.transfer_bytes d);
  Dirty.free mem d;
  check Alcotest.int "freed" 0 (Memory.used_class mem `System + Memory.used_class mem `User)

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
  Dirty.free mem d;
  check Alcotest.int "free returns it" before (Memory.used_class mem `System)

(* ---------------- Miss buffer ---------------- *)

let test_miss_buffer () =
  let mem = mk_mem () in
  let b = Miss_buffer.create mem ~elem_bytes:8 in
  check Alcotest.bool "empty" true (Miss_buffer.is_empty b);
  let bank = [| 1.5; 2.5 |] in
  Miss_buffer.record_f b 5 bank 0;
  Miss_buffer.record_f b 9 bank 1;
  check Alcotest.int "count" 2 (Miss_buffer.count b);
  check Alcotest.(list int) "indices in order" [ 5; 9 ] [ Miss_buffer.index b 0; Miss_buffer.index b 1 ];
  check (Alcotest.float 1e-12) "order preserved" 1.5 (Miss_buffer.float_value b 0);
  check (Alcotest.float 1e-12) "second" 2.5 (Miss_buffer.float_value b 1);
  check Alcotest.bool "device accounted" true (Memory.used_class mem `System > 0);
  Miss_buffer.drain b;
  check Alcotest.bool "drained" true (Miss_buffer.is_empty b);
  check Alcotest.int "memory released" 0 (Memory.used_class mem `System);
  check Alcotest.bool "peak kept" true (Memory.peak_class mem `System > 0);
  (* A drained buffer records from the start again. *)
  Miss_buffer.record_f b 3 bank 1;
  check Alcotest.int "index after drain" 3 (Miss_buffer.index b 0);
  check (Alcotest.float 1e-12) "value after drain" 2.5 (Miss_buffer.float_value b 0)

(* Recording allocates nothing per miss, amortized: 100,000 misses into
   one buffer of each element type, on this domain. *)
let test_miss_buffer_allocation () =
  let n = 100_000 in
  let mem = mk_mem () in
  let per_miss record =
    let before = Gc.minor_words () in
    for i = 0 to n - 1 do
      record i
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let fb = Miss_buffer.create mem ~elem_bytes:8 and bank = [| 0.5 |] in
  let f = per_miss (fun i -> Miss_buffer.record_f fb i bank 0) in
  let ib = Miss_buffer.create mem ~elem_bytes:4 in
  let i = per_miss (fun i -> Miss_buffer.record_i ib (n - i) i) in
  if f >= 1.0 || i >= 1.0 then
    Alcotest.failf "minor words per miss: %.3f (double), %.3f (int)" f i;
  check Alcotest.int "every double kept" n (Miss_buffer.count fb);
  check (Alcotest.float 0.0) "last double" 0.5 (Miss_buffer.float_value fb (n - 1));
  check Alcotest.(pair int int) "last int" (1, n - 1)
    (Miss_buffer.index ib (n - 1), Miss_buffer.int_value ib (n - 1))

(* ---------------- Darray state machine ---------------- *)

let mk_cfg ?(num_gpus = 2) () = Rt_config.make ~num_gpus (Machine.desktop ())

let mk_da cfg name data =
  Darray.create cfg ~name ~host:(Mgacc_exec.View.of_float_array ~name data)

let state_name (da : Darray.t) =
  match da.Darray.state with
  | Darray.Unallocated -> "unallocated"
  | Darray.Replicated _ -> "replicated"
  | Darray.Distributed _ -> "distributed"

let xfer_bytes xs = List.fold_left (fun acc (x : Darray.xfer) -> acc + x.Darray.bytes) 0 xs

let test_darray_replicate_and_reuse () =
  let cfg = mk_cfg () in
  let da = mk_da cfg "a" (Array.init 100 float_of_int) in
  let xfers = Darray.ensure_replicated cfg da ~dirty_tracking:true in
  check Alcotest.int "load both gpus" (2 * 800) (xfer_bytes xfers);
  check Alcotest.string "state" "replicated" (state_name da);
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
  check Alcotest.string "now distributed" "distributed" (state_name da)

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
  check Alcotest.string "freed" "unallocated" (state_name da);
  (* All device memory returned. *)
  for g = 0 to 1 do
    let mem = (Machine.device cfg.Rt_config.machine g).Mgacc_gpusim.Device.memory in
    check Alcotest.int "no leak" 0 (Memory.used_class mem `User + Memory.used_class mem `System)
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
    Profiler.charge p cat ~label:"x" ~exposed:seconds ~hidden:0.0 ~bytes
  in
  charge Mgacc_obs.Blame.Cpu_gpu ~seconds:1.0 ~bytes:100;
  charge Mgacc_obs.Blame.Gpu_gpu ~seconds:0.5 ~bytes:50;
  charge Mgacc_obs.Blame.Kernel ~seconds:2.0 ~bytes:0;
  charge Mgacc_obs.Blame.Overhead ~seconds:0.25 ~bytes:0;
  check Alcotest.int "bytes" 100 p.Profiler.cpu_gpu_bytes;
  let summary = Mgacc_obs.Blame.summarize p.Profiler.ledger ~trace:(Mgacc_sim.Trace.create ()) in
  check Alcotest.int "one blame row per charge" 4 (List.length summary.Mgacc_obs.Blame.s_rows);
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
      Profiler.charge p Mgacc_obs.Blame.Kernel ~label:"k" ~exposed:(-1e-9) ~hidden:0.0 ~bytes:0);
  raises "bytes" (fun () ->
      Profiler.charge p Mgacc_obs.Blame.Cpu_gpu ~label:"h2d" ~exposed:0.0 ~hidden:0.0 ~bytes:(-1));
  raises "wire bytes" (fun () -> Profiler.add_wire_bytes p ~bytes:(-1));
  raises "prefetch hits" (fun () -> Profiler.add_prefetch_hits p ~count:(-1));
  raises "segments" (fun () ->
      Profiler.add_collective p ~rings:0 ~hierarchies:0 ~direct_groups:0 ~segments:(-1));
  raises "spilled bytes" (fun () -> Profiler.add_spill p ~bytes:(-1));
  raises "imbalance" (fun () -> Profiler.add_imbalance p ~ratio:(-0.5));
  let totals = Mgacc_obs.Blame.totals p.Profiler.ledger in
  check Alcotest.bool "nothing charged" true
    (totals.Mgacc_obs.Blame.t_hidden = 0.0
    && List.for_all (fun (_, e, h) -> e = 0.0 && h = 0.0) totals.Mgacc_obs.Blame.t_categories
    && (Mgacc_obs.Blame.summarize p.Profiler.ledger ~trace:(Mgacc_sim.Trace.create ()))
         .Mgacc_obs.Blame.s_rows
       = [])

(* ---------------- Comms path allocation ---------------- *)

(* Allocation gate for the runtime's transfer path: one batch shaped like
   the eager dirty merge on 64 GPUs (every GPU's chunk to its 63 peers:
   4,032 transfers on fattree:16x4) through
   [Acc_runtime.charge_host_xfers], which builds the batch, runs the
   fabric, records the spans and charges the phase. Before transfers
   went into flat columns this path allocated 60.8 minor words per
   transfer and promoted 20.0 of them (docs/PERF.md, "Transfers and
   their spans in flat columns"); the bound is a third of that. What is
   left dies at once, so a minor collection after the batch promotes
   almost nothing: a transfer's request, causes, completion and span
   all live in columns that were grown by the first batch. *)
let comms_words_per_transfer_bound = 60.8 /. 3.0
let comms_promoted_per_span_bound = 1.0

let test_comms_batch_allocation () =
  let machine =
    Machine.of_spec (Machine.Fat_tree_spec { nodes = 16; gpus_per_node = 4; oversub = 2.0 })
  in
  let cfg = Rt_config.make machine in
  let plans =
    Mgacc_translator.Program_plan.build ~options:cfg.Rt_config.translator
      (Mgacc.parse_string ~name:"empty.c" "void main() {}")
  in
  let t = Acc_runtime.create cfg plans in
  let xfers =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst ->
            if src = dst then None
            else Some { Darray.dir = Mgacc_gpusim.Fabric.P2p (src, dst); bytes = 4096; tag = "x:chunk" })
          (List.init 64 Fun.id))
      (List.init 64 Fun.id)
  in
  let n = float_of_int (List.length xfers) in
  (* The first batch fills the fabric's route memo, interns the names and
     grows every column; measure the second. *)
  Acc_runtime.charge_host_xfers t ~label:"merge" xfers;
  let spans0 = List.length (Mgacc_sim.Trace.spans machine.Machine.trace) in
  Gc.minor ();
  let promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
  let words0 = Gc.minor_words () in
  Acc_runtime.charge_host_xfers t ~label:"merge" xfers;
  let words = Gc.minor_words () -. words0 in
  Gc.minor ();
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. promoted0 in
  let spans = List.length (Mgacc_sim.Trace.spans machine.Machine.trace) - spans0 in
  check Alcotest.int "one span per transfer" 4032 spans;
  let per_transfer = words /. n and per_span = promoted /. float_of_int spans in
  Printf.printf "comms batch: %.2f minor words per transfer (bound %.2f), %.3f promoted per span (bound %.1f)\n"
    per_transfer comms_words_per_transfer_bound per_span comms_promoted_per_span_bound;
  if per_transfer > comms_words_per_transfer_bound then
    Alcotest.failf "the runtime's transfer path allocates %.2f minor words per transfer (bound %.2f)"
      per_transfer comms_words_per_transfer_bound;
  if per_span > comms_promoted_per_span_bound then
    Alcotest.failf "a minor collection after the batch promotes %.3f words per span (bound %.1f)"
      per_span comms_promoted_per_span_bound

(* ---------------- Parallel launches ---------------- *)

module Launch = Mgacc_runtime.Launch

(* A program on a [--machine] spec under [config]. *)
let run_shape ?pool source spec config =
  let spec = match Machine.spec_of_string spec with Ok s -> s | Error e -> failwith e in
  let machine = Machine.of_spec spec in
  Mgacc.Acc_runtime.run ?pool ~config:(config machine) (Mgacc.parse_string ~name:"t" source)

(* A launch whose iteration [w] reads outside its GPU's window under a
   localaccess that claims no halo ([Window_violation]) and whose
   iteration [b] reads past the end of [a] ([View.Bounds]); [-1] turns
   a fault off. GPU g of [gpus] runs iterations [25g, 25g + 25) of 100
   on 4 GPUs and [50g, 50g + 50) on 2. *)
let faulting_launch ~gpus ~w ~b =
  let src =
    Printf.sprintf
      {|void main() {
        int n = 100; double a[n]; double b[n]; int i;
        for (i = 0; i < n; i++) { a[i] = 0.0; b[i] = i; }
        #pragma acc data copy(a[0:n]) copyin(b[0:n])
        {
          #pragma acc parallel loop localaccess(b: stride(1, 0, 0))
          for (i = 0; i < n; i++) {
            double v = b[i];
            if (i == %d) { v = b[(i + 50) %% n]; }
            if (i == %d) { v = a[i + 1000]; }
            a[i] = v;
          }
        }
      }|}
      w b
  in
  let spec = if gpus = 2 then "desktop" else Printf.sprintf "cluster:%dx2" (gpus / 2) in
  fun () -> ignore (run_shape src spec (fun m -> Rt_config.make m))

let window_violation ~index ~gpu =
  Launch.Window_violation { array = "b"; index; gpu; what = "read outside window" }

let out_of_bounds index = Mgacc_exec.View.Bounds { name = "a"; index; length = 100 }

(* The GPUs' partitions run at the same time; the launch still raises the
   lowest faulting GPU's error, as running them in GPU order did. *)
let test_launch_raises_lowest_gpu_fault () =
  let raises what expected ~gpus ~w ~b =
    Alcotest.check_raises what expected (faulting_launch ~gpus ~w ~b)
  in
  raises "2 GPUs: GPU 0's window violation before GPU 1's bounds error"
    (window_violation ~index:60 ~gpu:0) ~gpus:2 ~w:10 ~b:60;
  raises "2 GPUs: GPU 0's bounds error before GPU 1's window violation" (out_of_bounds 1010)
    ~gpus:2 ~w:60 ~b:10;
  raises "4 GPUs: GPU 1's bounds error before GPU 3's window violation" (out_of_bounds 1030)
    ~gpus:4 ~w:80 ~b:30;
  raises "4 GPUs: GPU 2's window violation before GPU 3's bounds error"
    (window_violation ~index:5 ~gpu:2) ~gpus:4 ~w:55 ~b:80;
  raises "2 GPUs: only GPU 1 faults" (out_of_bounds 1060) ~gpus:2 ~w:(-1) ~b:60;
  raises "4 GPUs: only GPU 3 faults" (window_violation ~index:40 ~gpu:3) ~gpus:4 ~w:90 ~b:(-1);
  (* After a faulting launch, the same program without faults runs. *)
  faulting_launch ~gpus:4 ~w:(-1) ~b:(-1) ()

(* The end-to-end benchmark's four shapes at their smoke sizes. *)
let e2e_smoke_shapes () =
  let module A = Mgacc_apps in
  let tuned m =
    Rt_config.make ~coherence:Rt_config.Lazy ~collective:Rt_config.Auto ~overlap:true
      ~translator:
        { Mgacc.Kernel_plan.default_options with Mgacc.Kernel_plan.enable_fusion = true }
      m
  in
  let kmeans =
    A.Kmeans.app
      {
        A.Kmeans.points = 300;
        features = 8;
        clusters = 5;
        iterations = 2;
        seed = A.Kmeans.default_params.A.Kmeans.seed;
      }
  in
  let bfs max_degree =
    A.Bfs.app { A.Bfs.nodes = 600; max_degree; seed = A.Bfs.default_params.A.Bfs.seed }
  in
  let spmv =
    A.Spmv.app
      { A.Spmv.rows = 600; width = 6; iterations = 2; seed = A.Spmv.default_params.A.Spmv.seed }
  in
  [
    ("kmeans on desktop", kmeans, "desktop", fun m -> Rt_config.make m);
    ("bfs on desktop", bfs 16, "desktop", fun m -> Rt_config.make m);
    ("bfs tuned on fattree:4x4", bfs 6, "fattree:4x4", tuned);
    ( "spmv auto on fattree:16x4",
      spmv,
      "fattree:16x4",
      fun m -> Rt_config.make ~collective:Rt_config.Auto m );
  ]

module Ast = Mgacc_minic.Ast

let kmeans_types = function
  | "x" | "centers" | "newcenters" -> Ast.Tarray Ast.Edouble
  | "membership" | "counts" -> Ast.Tarray Ast.Eint
  | _ -> Ast.Tint

(* How many counted loops of each parallel loop of [source] compile to
   strips. kmeans's assignment kernel must have its distance loop there:
   its loads are [x]'s rows, inside each GPU's part, and the replicated
   [centers], so every entry takes the strip path. Its centre reduction
   must have its update loop there: it reads [x]'s rows and folds into the
   GPU's partial of [newcenters], so every entry takes the strip path. *)
let strip_loops ?(types = kmeans_types) source =
  let module Loop_info = Mgacc_analysis.Loop_info in
  let program = Mgacc.parse_string ~name:"shape.c" source in
  List.map
    (fun loop ->
      let params = List.map (fun v -> (v, types v)) (Loop_info.free_vars loop) in
      Test_exec.strip_loops ~loop ~params ~classify:(fun _ _ -> Mgacc_analysis.Coalesce.Coalesced))
    (Loop_info.extract (Option.get (Ast.find_func program "main")))

let check_kmeans_strips what (app : Mgacc_apps.App_common.t) =
  if String.starts_with ~prefix:"kmeans" what then
    check
      Alcotest.(list int)
      (what ^ ": the distance and centre-update loops run over strips")
      [ 1; 1 ] (strip_loops app.source)

(* A centre-update loop over Launch's reduction views, [lens[i]] trips
   in iteration [i] (zero in some entries, and in whole parts of some
   GPUs, which then ship no gather); the twin steps its counter with [j2
   = j2 + 1], so it is no counted loop and runs one trip at a time. Run on
   2 and 4 GPUs, its results and report (gathers and charges included)
   must equal the strips'. *)
let reduction_loop ~counted lens =
  Printf.sprintf
    {|void main() {
      int n = 64; int f = 8; int k = 3;
      double x[n*f]; int lens[n]; int cls[n]; double sums[k*f]; int i;
      for (i = 0; i < n*f; i++) { x[i] = (i %% 13) * 0.25 + 1.0 / (i + 1); }
      for (i = 0; i < n; i++) { lens[i] = %s; cls[i] = i %% k; }
      for (i = 0; i < k*f; i++) { sums[i] = 0.5; }
      #pragma acc data copyin(x[0:n*f], lens[0:n], cls[0:n]) copy(sums[0:k*f])
      {
        #pragma acc parallel loop localaccess(x: stride(f), lens: stride(1), cls: stride(1))
        for (i = 0; i < n; i++) {
          int c = cls[i];
          int t = lens[i];
          int j2;
          for (j2 = 0; j2 < t; %s) {
            #pragma acc reductiontoarray(+: sums)
            sums[c*f + j2] = sums[c*f + j2] + x[i*f + j2];
          }
        }
      }
    }|}
    lens
    (if counted then "j2++" else "j2 = j2 + 1")

let reduction_types = function
  | "x" | "sums" -> Ast.Tarray Ast.Edouble
  | "lens" | "cls" -> Ast.Tarray Ast.Eint
  | _ -> Ast.Tint

let test_reduction_strips_match_twin () =
  List.iter
    (fun (spec, lens) ->
      let run counted =
        let src = reduction_loop ~counted lens in
        let strips = strip_loops ~types:reduction_types src in
        let env, report = run_shape src spec (fun m -> Rt_config.make m) in
        (strips, Array.map Int64.bits_of_float (Mgacc.float_results env "sums"), Report.to_json report)
      in
      let what = Printf.sprintf "%s, lens[i] = %s" spec lens in
      let strips, sums, json = run true and twin_strips, twin_sums, twin_json = run false in
      check Alcotest.(list int) (what ^ ": the update loop runs over strips") [ 1 ] strips;
      check Alcotest.(list int) (what ^ ": the twin's does not") [ 0 ] twin_strips;
      if sums <> twin_sums then Alcotest.failf "%s: sums differ from the twin's" what;
      check Alcotest.string (what ^ ": report") twin_json json)
    [
      ("desktop", "i < 20 ? i % 9 : 0");
      ("desktop", "i >= 44 ? f : 0");
      ("cluster:2x2", "i < 20 ? i % 9 : 0");
      ("cluster:2x2", "i % 3 == 0 ? f : i % 2");
      ("cluster:2x2", "i >= 50 ? i % 5 : 0");
    ];
  (* A reduction view declaring another operator than the update's: the
     entry runs one trip at a time and raises the accessor's error. *)
  let module View = Mgacc_exec.View in
  let module Frame = Mgacc_exec.Frame in
  let module Kernel_compile = Mgacc_exec.Kernel_compile in
  let program = Mgacc.parse_string ~name:"r.c" (reduction_loop ~counted:true "f") in
  let loop = List.hd (Mgacc_analysis.Loop_info.extract (Option.get (Ast.find_func program "main"))) in
  let params = List.map (fun v -> (v, reduction_types v)) (Mgacc_analysis.Loop_info.free_vars loop) in
  let classify _ _ = Mgacc_analysis.Coalesce.Coalesced in
  let kc = Kernel_compile.compile ~loop ~params ~classify in
  let cfg = mk_cfg () in
  let sums = mk_da cfg "sums" (Array.make 24 0.5) in
  ignore (Darray.ensure_replicated cfg sums ~dirty_tracking:false);
  let frame = kc.Kernel_compile.make_frame () in
  List.iter
    (fun (name, slot, _) ->
      match name with
      | "x" -> Frame.set_view frame slot (View.of_float_array ~name (Array.make 512 1.0))
      | "cls" | "lens" -> Frame.set_view frame slot (View.of_int_array ~name (Array.make 64 1))
      | "sums" -> Frame.set_view frame slot (Launch.reduction_view sums ~gpu:1 (Reduction.allocate cfg sums Ast.Rmul))
      | _ -> Frame.set_int frame slot 8)
    kc.Kernel_compile.params;
  check Alcotest.int "the mismatched loop compiles to strips" 1 (Test_exec.strip_loops ~loop ~params ~classify);
  Alcotest.check_raises "operator mismatch" (Invalid_argument "array sums: reduction operator mismatch (* declared)")
    (fun () -> kc.Kernel_compile.run_iter frame 3)

(* Allocation counters count the domain that reads them, so a task must
   not allocate where the caller's counters cannot see it: every task of
   every launch allocates nothing on the domain that runs it. *)
let test_tasks_allocate_nothing () =
  let tasks = Atomic.make 0 and allocating = Atomic.make 0 and worst = Atomic.make 0 in
  let report ~gpu:_ ~iterations:_ ~words =
    Atomic.incr tasks;
    if words <> 0.0 then begin
      Atomic.incr allocating;
      let w = int_of_float words in
      let rec raise_to () =
        let m = Atomic.get worst in
        if w > m && not (Atomic.compare_and_set worst m w) then raise_to ()
      in
      raise_to ()
    end
  in
  Fun.protect
    ~finally:(fun () -> Launch.task_words := None)
    (fun () ->
      List.iter
        (fun (what, (app : Mgacc_apps.App_common.t), spec, config) ->
          check_kmeans_strips what app;
          Atomic.set tasks 0;
          Launch.task_words := Some report;
          ignore (run_shape app.source spec config);
          Launch.task_words := None;
          if Atomic.get tasks = 0 then Alcotest.failf "%s: no task reported" what;
          if Atomic.get allocating > 0 then
            Alcotest.failf "%s: %d of %d tasks allocated, up to %d minor words" what
              (Atomic.get allocating) (Atomic.get tasks) (Atomic.get worst))
        (e2e_smoke_shapes ()))

(* A run's report and its result arrays, doubles as their bits so NaNs
   and signed zeros count. *)
let snapshot ?pool (app : Mgacc_apps.App_common.t) spec config =
  let env, report = run_shape ?pool app.source spec config in
  let arrays =
    List.map
      (fun name ->
        match Mgacc.Host_interp.find_array env name with
        | { Mgacc_exec.View.elem = Mgacc_minic.Ast.Edouble; _ } ->
            Array.map Int64.bits_of_float (Mgacc.float_results env name)
        | _ -> Array.map Int64.of_int (Mgacc.int_results env name))
      app.result_arrays
  in
  (Report.to_json report, arrays)

(* Partitions finish in whatever order the domains take them; nothing a
   run reports or computes may depend on it. *)
let test_parallel_runs_deterministic () =
  List.iter
    (fun (what, (app : Mgacc_apps.App_common.t), spec, config) ->
      check_kmeans_strips what app;
      let snapshot () = snapshot app spec config in
      let json, arrays = snapshot () in
      for run = 2 to 10 do
        let json', arrays' = snapshot () in
        if json' <> json then Alcotest.failf "%s: run %d's report differs from run 1's" what run;
        if arrays' <> arrays then
          Alcotest.failf "%s: run %d's result arrays differ from run 1's" what run
      done)
    (e2e_smoke_shapes ())

(* The same runs on a pool that runs every task on the caller and on one
   of three workers, which oversubscribes a small host and so interleaves
   the GPUs' tasks whatever its core count: the reports and result arrays
   must be equal bit for bit. The tasks read the proofs their frames were
   bound with, so this also checks that binding leaves nothing a task
   writes. *)
let test_pool_worker_counts_agree () =
  let shapes =
    List.filter
      (fun (what, _, _, _) -> what = "kmeans on desktop" || what = "bfs tuned on fattree:4x4")
      (e2e_smoke_shapes ())
  in
  check Alcotest.int "two shapes" 2 (List.length shapes);
  let inline = Pool.create ~workers:0 and three = Pool.create ~workers:3 in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown inline;
      Pool.shutdown three)
    (fun () ->
      List.iter
        (fun (what, app, spec, config) ->
          let json, arrays = snapshot ~pool:inline app spec config in
          let json', arrays' = snapshot ~pool:three app spec config in
          check Alcotest.string (what ^ ": report on 0 and 3 workers") json json';
          if arrays <> arrays' then Alcotest.failf "%s: result arrays differ on 0 and 3 workers" what)
        shapes)

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
    tc "miss buffer: a miss allocates less than a word" test_miss_buffer_allocation;
    tc "darray: replicate, reuse, content" test_darray_replicate_and_reuse;
    tc "darray: distribution windows and owners" test_darray_distribute_windows;
    tc "darray: placement transition flushes" test_darray_transition_flushes;
    tc "darray: release with copyout" test_darray_release_copyout;
    tc "darray: halo-covering reuse" test_darray_halo_covering_reuse;
    tc "comm: three-GPU halo exchange" test_halo_exchange_three_gpus;
    tc "comm: miss records preserve program order" test_miss_records_preserve_order;
    tc "profiler: accumulation" test_profiler;
    tc "profiler: negative increments raise" test_profiler_rejects_negative;
    tc "launch: the lowest faulting GPU's error is raised" test_launch_raises_lowest_gpu_fault;
    tc "launch: tasks allocate nothing per iteration" test_tasks_allocate_nothing;
    tc "launch: ten runs of each e2e shape are identical" test_parallel_runs_deterministic;
    tc "launch: 0 and 3 pool workers give identical runs" test_pool_worker_counts_agree;
    tc "launch: reduction updates over strips equal one trip at a time" test_reduction_strips_match_twin;
    tc "comms path: an eager-merge batch through the runtime allocates a third of what it did"
      test_comms_batch_allocation;
  ]
