(* Tests for the machine simulator: memory accounting, fair-share fabric,
   roofline models, machine presets, virtual CUDA API. *)

open Mgacc_gpusim

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---------------- Memory ---------------- *)

(* Bytes in use, both classes. *)
let used m = Memory.used_class m `User + Memory.used_class m `System

let test_memory_accounting () =
  let m = Memory.create ~device_id:0 ~capacity:1000 in
  let b1 = Memory.alloc_float m `User 50 in
  check Alcotest.int "user bytes" 400 (Memory.used_class m `User);
  let b2 = Memory.alloc_raw m `System 100 in
  check Alcotest.int "system bytes" 100 (Memory.used_class m `System);
  check Alcotest.int "total" 500 (used m);
  Memory.free m b1;
  check Alcotest.int "freed" 100 (used m);
  Memory.free m b1;
  check Alcotest.int "double free ignored" 100 (used m);
  check Alcotest.int "peak survives free" 400 (Memory.peak_class m `User);
  Memory.free m b2

let test_memory_oom () =
  let m = Memory.create ~device_id:3 ~capacity:1000 in
  match Memory.alloc_float m `User 50 with
  | exception _ -> Alcotest.fail "should fit"
  | _ -> (
      match Memory.alloc_float m `User 100 with
      | exception Memory.Out_of_device_memory { device_id = 3; requested = 800; available = 600 } ->
          ()
      | exception Memory.Out_of_device_memory _ -> Alcotest.fail "wrong OOM payload"
      | _ -> Alcotest.fail "expected OOM")

let test_memory_use_after_free () =
  let m = Memory.create ~device_id:0 ~capacity:1000 in
  let b = Memory.alloc_float m `User 4 in
  Memory.free m b;
  match Memory.float_data b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "use after free"

(* ---------------- Fabric ---------------- *)

let gb = 1024.0 *. 1024.0 *. 1024.0

let test_link =
  {
    Spec.h2d_bandwidth = 4.0 *. gb;
    d2h_bandwidth = 4.0 *. gb;
    p2p_bandwidth = 2.0 *. gb;
    link_latency = 10e-6;
    host_aggregate_bandwidth = 6.0 *. gb;
  }

let test_fabric_single_transfer () =
  let f = Fabric.create test_link ~num_gpus:2 in
  let bytes = int_of_float gb in
  let expected = 10e-6 +. (1.0 /. 4.0) in
  check (Alcotest.float 1e-9) "alone time" expected
    (Fabric.transfer_time_alone f (Fabric.H2d 0) ~bytes);
  match Ref_fabric.finishes f [ { Ref_fabric.direction = Fabric.H2d 0; bytes; ready = 0.0; tag = "x" } ] with
  | [ finish ] -> check (Alcotest.float 1e-6) "batch matches alone" expected finish
  | _ -> Alcotest.fail "one completion"

let test_fabric_host_aggregate_contention () =
  (* Two concurrent H2D at 4 GB/s each would want 8; the 6 GB/s root
     complex caps them at 3 each. *)
  let f = Fabric.create test_link ~num_gpus:2 in
  let bytes = int_of_float (3.0 *. gb) in
  let reqs =
    [
      { Ref_fabric.direction = Fabric.H2d 0; bytes; ready = 0.0; tag = "a" };
      { Ref_fabric.direction = Fabric.H2d 1; bytes; ready = 0.0; tag = "b" };
    ]
  in
  match Ref_fabric.finishes f reqs with
  | [ a; b ] ->
      check (Alcotest.float 1e-3) "fair share a" (10e-6 +. 1.0) a;
      check (Alcotest.float 1e-3) "fair share b" (10e-6 +. 1.0) b
  | _ -> Alcotest.fail "two completions"

let test_fabric_own_cap_binds () =
  (* P2P capped at 2 GB/s regardless of the links. *)
  let f = Fabric.create test_link ~num_gpus:2 in
  let bytes = int_of_float (2.0 *. gb) in
  match
    Ref_fabric.finishes f [ { Ref_fabric.direction = Fabric.P2p (0, 1); bytes; ready = 0.0; tag = "p" } ]
  with
  | [ finish ] -> check (Alcotest.float 1e-3) "p2p rate" (10e-6 +. 1.0) finish
  | _ -> Alcotest.fail "one completion"

let test_fabric_staggered_arrivals () =
  let f = Fabric.create test_link ~num_gpus:2 in
  let bytes = int_of_float gb in
  let reqs =
    [
      { Ref_fabric.direction = Fabric.H2d 0; bytes; ready = 0.0; tag = "early" };
      { Ref_fabric.direction = Fabric.H2d 0; bytes; ready = 10.0; tag = "late" };
    ]
  in
  (match Ref_fabric.finishes f reqs with
  | [ a; b ] ->
      check Alcotest.bool "early done before late starts" true (a < 10.0);
      check Alcotest.bool "late after its ready" true (b > 10.0)
  | _ -> Alcotest.fail "two completions");
  (* Zero-byte requests complete instantly. *)
  match
    Ref_fabric.finishes f [ { Ref_fabric.direction = Fabric.H2d 0; bytes = 0; ready = 5.0; tag = "z" } ]
  with
  | [ finish ] -> check (Alcotest.float 1e-12) "zero bytes" 5.0 finish
  | _ -> Alcotest.fail "one completion"

let test_fabric_conservation () =
  (* Any mix of transfers must finish no earlier than bytes / best rate. *)
  let f = Fabric.create test_link ~num_gpus:3 in
  let reqs =
    List.init 9 (fun i ->
        {
          Ref_fabric.direction =
            (match i mod 3 with
            | 0 -> Fabric.H2d (i mod 2)
            | 1 -> Fabric.D2h ((i + 1) mod 2)
            | _ -> Fabric.P2p (i mod 3, (i + 1) mod 3));
          bytes = (i + 1) * 10_000_000;
          ready = float_of_int (i mod 2) *. 0.001;
          tag = "t";
        })
  in
  List.iter2
    (fun (r : Ref_fabric.request) finish ->
      let lower = r.ready +. (float_of_int r.bytes /. Fabric.standalone_bandwidth f r.direction) in
      if finish +. 1e-9 < lower then
        Alcotest.failf "finish %f before physical lower bound %f" finish lower)
    reqs (Ref_fabric.finishes f reqs)

(* A deterministic synthetic transfer storm over a clustered fabric:
   H2d/D2h, same-node and cross-node peer transfers, arrivals in waves.
   Same LCG shape as the [bench sim] storm so the tests exercise the
   traffic the tentpole speedup claim is made on. *)
let storm fabric ~flows ~waves ~seed =
  let topo = Option.get (Fabric.topology fabric) in
  let gpn = topo.Fabric.gpus_per_node in
  let num_gpus = Fabric.num_gpus fabric in
  let nodes = num_gpus / gpn in
  let state = ref seed in
  let rand bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  List.init flows (fun i ->
      let ready = float_of_int (i mod waves) *. 2e-4 in
      let g = rand num_gpus in
      let direction =
        match rand 4 with
        | 0 -> Fabric.H2d g
        | 1 -> Fabric.D2h g
        | 2 ->
            let node = g / gpn in
            let p = (node * gpn) + ((g mod gpn) + 1 + rand (gpn - 1)) mod gpn in
            Fabric.P2p (g, p)
        | _ ->
            let dst_node = ((g / gpn) + 1 + rand (Int.max 1 (nodes - 1))) mod nodes in
            Fabric.P2p (g, (dst_node * gpn) + rand gpn)
      in
      let bytes = if i mod 17 = 0 then 0 else 1_000_000 + rand 32_000_000 in
      { Ref_fabric.direction; bytes; ready; tag = Printf.sprintf "storm-%d" i })

let cluster_fabric ~nodes ~gpus_per_node =
  let topology =
    { Fabric.gpus_per_node; internode_bandwidth = 3.2e9; internode_latency = 25e-6 }
  in
  Fabric.create ~topology test_link ~num_gpus:(nodes * gpus_per_node)

(* Pinned differential: the incremental allocator (the default) must
   reproduce the from-scratch reference bit for bit on a fixed clustered
   storm — this is the invariant that keeps every committed BENCH_*.json
   time stable across the fast-path work. The QCheck property in
   test_props covers random batches; this pins one deterministic,
   zero-byte-and-tie-bearing scenario that always runs. *)
let test_fabric_incremental_identity () =
  let f = cluster_fabric ~nodes:2 ~gpus_per_node:2 in
  let b = Ref_fabric.batch_of (storm f ~flows:120 ~waves:10 ~seed:7) in
  Fabric.run f b;
  let slow = Ref_fabric.run_reference f b in
  check Alcotest.int "same completion count" b.Fabric.len (Array.length slow);
  Array.iteri
    (fun i finish ->
      let fast = Float.Array.get b.Fabric.finish i in
      if not (Float.equal fast finish) then
        Alcotest.failf "finish diverged on %s: %h vs %h" b.Fabric.tags.(i) fast finish)
    slow

(* Live relative perf gate: unlike the BENCH_sim.json bars (absolute
   numbers from the committed artifact), this times both allocators here
   and now, so it catches a fast-path revert on any machine speed. The
   3x bar is deliberately far under the ~10x measured at this scale to
   keep CI flake-free; CPU time, not wall clock, for the same reason. *)
let test_fabric_incremental_perf_gate () =
  let f = cluster_fabric ~nodes:2 ~gpus_per_node:4 in
  let b = Ref_fabric.batch_of (storm f ~flows:400 ~waves:8 ~seed:11) in
  let time run =
    ignore (run f b) (* warm up *);
    let t0 = Sys.time () in
    ignore (run f b);
    Sys.time () -. t0
  in
  let slow = time Ref_fabric.run_reference in
  let fast = time Fabric.run in
  if fast *. 3.0 > slow then
    Alcotest.failf "incremental allocator only %.2fx faster than reference (%.4fs vs %.4fs)"
      (slow /. fast) fast slow

(* Allocation gate for the comms path: one 64-GPU fat-tree broadcast
   batch (each node's first GPU to its 63 peers: 16 x 63 = 1,008 flows,
   same-node and cross-node arrivals interleaved) through
   [Machine.run_transfers_spans]. Minor words per flow cover its trace
   span (the boxed start and finish handed to [Trace.record] and its
   tag's option, 6 words) and the merge closures of the arrival-order
   sort (about 2.6). A formatted resource name or label per span, a
   per-flow record, list cell or heap entry, or a float boxed per flow
   per event pushes a batch past the bound. *)
let comms_words_per_flow_bound = 12.0

let test_comms_path_allocation_gate () =
  let m = Machine.of_spec (Machine.Fat_tree_spec { nodes = 16; gpus_per_node = 4; oversub = 2.0 }) in
  let b = Fabric.batch () in
  let fill () =
    Fabric.clear b;
    for node = 0 to 15 do
      let root = 4 * node in
      for peer = 0 to 63 do
        if peer <> root then
          Fabric.push b (Fabric.P2p (root, peer)) ~bytes:(1 lsl 16) ~ready:0.0 ~tag:"bcast"
      done
    done
  in
  (* The first batch fills the route memo and grows the columns; refill
     and measure the second. *)
  fill ();
  Machine.run_transfers_spans m ~label:"warm" b;
  fill ();
  let before = Gc.minor_words () in
  Machine.run_transfers_spans m ~label:"bcast" b;
  let words = Gc.minor_words () -. before in
  let flows = b.Fabric.len in
  check Alcotest.int "one span per flow" flows
    (Array.fold_left (fun n sid -> if sid >= 0 then n + 1 else n) 0 (Array.sub b.Fabric.span 0 flows));
  let per_flow = words /. float_of_int flows in
  Printf.printf "comms path: %.1f minor words per flow (bound %.0f)\n" per_flow
    comms_words_per_flow_bound;
  if per_flow > comms_words_per_flow_bound then
    Alcotest.failf "comms path allocates %.1f minor words per flow (bound %.0f)" per_flow
      comms_words_per_flow_bound

(* ---------------- Kernel cost & CPU model ---------------- *)

let test_kernel_cost_roofline () =
  let g = Spec.tesla_c2075 in
  let c = Cost.zero () in
  c.Cost.flops <- 1_000_000_000;
  let t_compute = Kernel_cost.duration g ~threads:100000 c in
  (* 1 GFLOP at ~309 sustained GFLOP/s -> about 3.2 ms *)
  check Alcotest.bool "compute-bound plausible" true (t_compute > 2e-3 && t_compute < 5e-3);
  let m = Cost.zero () in
  m.Cost.coalesced_bytes <- 1_000_000_000;
  let t_mem = Kernel_cost.duration g ~threads:100000 m in
  (* 1 GB at ~108 GB/s sustained -> about 8.6 ms *)
  check Alcotest.bool "memory-bound plausible" true (t_mem > 6e-3 && t_mem < 12e-3);
  (* Random accesses cost a transaction each. *)
  let r = Cost.zero () in
  r.Cost.random_accesses <- 10_000_000;
  r.Cost.random_bytes <- 80_000_000;
  let t_rand = Kernel_cost.duration g ~threads:100000 r in
  let r2 = Cost.zero () in
  r2.Cost.coalesced_bytes <- 80_000_000;
  let t_seq = Kernel_cost.duration g ~threads:100000 r2 in
  check Alcotest.bool "random slower than coalesced" true (t_rand > (2.0 *. t_seq))

let test_kernel_cost_occupancy () =
  let g = Spec.tesla_c2075 in
  let c = Cost.zero () in
  c.Cost.flops <- 1_000_000;
  let t_small = Kernel_cost.duration g ~threads:32 c in
  let t_big = Kernel_cost.duration g ~threads:100000 c in
  check Alcotest.bool "few threads slower" true (t_small > t_big)

let test_kernel_cost_broadcast_discount () =
  let g = Spec.tesla_c2075 in
  let b = Cost.zero () in
  b.Cost.broadcast_bytes <- 320_000_000;
  let c = Cost.zero () in
  c.Cost.coalesced_bytes <- 320_000_000;
  check Alcotest.bool "broadcast cheaper" true
    (Kernel_cost.memory_time g b < Kernel_cost.memory_time g c /. 8.0)

let test_cpu_model_scaling () =
  let cpu = Spec.core_i7_970 in
  let c = Cost.zero () in
  c.Cost.flops <- 100_000_000;
  let t1 = Cpu_model.duration cpu ~threads:1 c in
  let t6 = Cpu_model.duration cpu ~threads:6 c in
  let t12 = Cpu_model.duration cpu ~threads:12 c in
  check Alcotest.bool "parallel speedup" true (t6 < t1 /. 3.0);
  check Alcotest.bool "HT adds a little" true (t12 < t6);
  check Alcotest.bool "HT far from linear" true (t12 > t6 /. 1.6)

(* ---------------- Machine & CUDA ---------------- *)

let test_machine_presets () =
  let d = Machine.desktop () in
  check Alcotest.int "desktop gpus" 2 (Machine.num_gpus d);
  check Alcotest.int "desktop threads" 12 d.Machine.default_omp_threads;
  let s = Machine.supernode () in
  check Alcotest.int "supernode gpus" 3 (Machine.num_gpus s);
  check Alcotest.int "supernode threads" 24 s.Machine.default_omp_threads;
  (match Machine.desktop ~num_gpus:3 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "desktop has at most 2 GPUs");
  (* Spans land in the trace. *)
  let c = Cost.zero () in
  c.Cost.flops <- 1000;
  let _ = Machine.launch_kernel_span d ~dev:0 ~ready:0.0 ~threads:100 ~label:"k" c in
  check Alcotest.int "span recorded" 1 (List.length (Mgacc_sim.Trace.spans d.Machine.trace))

(* Every accepted spec string form must round-trip through its canonical
   spelling, build a machine with the advertised GPU count, and reject
   malformed strings with a printable error (never a silent clamp). *)
let test_machine_spec_roundtrip () =
  let roundtrip s =
    match Machine.spec_of_string s with
    | Error e -> Alcotest.failf "spec %S rejected: %s" s e
    | Ok spec -> (
        let canon = Machine.spec_to_string spec in
        match Machine.spec_of_string canon with
        | Error e -> Alcotest.failf "canonical %S rejected: %s" canon e
        | Ok spec' ->
            check Alcotest.bool (Printf.sprintf "%s round-trips via %s" s canon) true
              (spec = spec');
            let m = Machine.of_spec spec in
            check Alcotest.int
              (Printf.sprintf "%s builds spec_gpus machines" s)
              (Machine.spec_gpus spec) (Machine.num_gpus m))
  in
  List.iter roundtrip
    [
      (* presets *)
      "desktop"; "desktop-mixed"; "supernode"; "cluster";
      (* explicit cluster shape *)
      "cluster:2x2"; "cluster:8x4";
      (* fat tree, default and explicit oversubscription *)
      "fattree:8x4"; "fattree:4x2:1"; "fattree:16x4:4";
      (* multi-rail, default and explicit rail count *)
      "multirail:8x4"; "multirail:2x4:3";
      (* NVLink-style mesh *)
      "nvmesh:8x4"; "nvmesh:2x2";
    ];
  let rejected s =
    match Machine.spec_of_string s with
    | Error msg ->
        check Alcotest.bool (Printf.sprintf "%s error is printable" s) true
          (String.length msg > 0)
    | Ok spec ->
        Alcotest.failf "bad spec %S accepted as %s" s (Machine.spec_to_string spec)
  in
  List.iter rejected
    [ "laptop"; "cluster:0x4"; "cluster:2x"; "fattree:8x4:0"; "multirail:8x4:-1";
      "nvmesh:x4"; "cluster:2x2x2"; "" ]

let test_machine_spec_canonical_forms () =
  let canon s expect =
    match Machine.spec_of_string s with
    | Error e -> Alcotest.failf "spec %S rejected: %s" s e
    | Ok spec -> check Alcotest.string (s ^ " canonical form") expect (Machine.spec_to_string spec)
  in
  canon "desktop" "desktop";
  canon "cluster:2x2" "cluster:2x2";
  canon "fattree:8x4" (Machine.spec_to_string (Machine.Fat_tree_spec { nodes = 8; gpus_per_node = 4; oversub = 2.0 }));
  canon "nvmesh:8x4" "nvmesh:8x4";
  check Alcotest.bool "grammar mentions fattree" true
    (let g = Machine.spec_grammar in
     let needle = "fattree" in
     let n = String.length needle and gl = String.length g in
     let rec scan i = i + n <= gl && (String.sub g i n = needle || scan (i + 1)) in
     scan 0)

let test_cuda_api () =
  let m = Machine.desktop () in
  let ctx = Cuda.init m in
  let buf = Cuda.malloc_floats ctx 8 in
  Cuda.memcpy_h2d_floats ctx ~dst:buf (Array.init 8 float_of_int);
  let t_after_copy = Cuda.now ctx in
  check Alcotest.bool "copy took time" true (t_after_copy > 0.0);
  Cuda.launch ctx ~threads:8 ~label:"double" (fun () ->
      let d = Memory.float_data buf in
      for i = 0 to 7 do
        d.(i) <- 2.0 *. d.(i)
      done;
      let c = Cost.zero () in
      c.Cost.flops <- 8;
      c);
  check Alcotest.bool "kernel took time" true (Cuda.now ctx > t_after_copy);
  let out = Array.make 8 0.0 in
  Cuda.memcpy_d2h_floats ctx ~src:buf out;
  check (Alcotest.float 1e-12) "kernel effect" 14.0 out.(7);
  Cuda.free ctx buf

let suite =
  [
    tc "memory: class accounting and peaks" test_memory_accounting;
    tc "memory: out of device memory" test_memory_oom;
    tc "memory: use after free" test_memory_use_after_free;
    tc "fabric: uncontended transfer" test_fabric_single_transfer;
    tc "fabric: host aggregate contention" test_fabric_host_aggregate_contention;
    tc "fabric: per-flow cap binds" test_fabric_own_cap_binds;
    tc "fabric: staggered arrivals and zero bytes" test_fabric_staggered_arrivals;
    tc "fabric: physical lower bounds" test_fabric_conservation;
    tc "fabric: incremental allocator pinned identity" test_fabric_incremental_identity;
    tc "fabric: incremental allocator perf gate" test_fabric_incremental_perf_gate;
    tc "comms path: minor words per flow" test_comms_path_allocation_gate;
    tc "kernel cost: roofline magnitudes" test_kernel_cost_roofline;
    tc "kernel cost: occupancy penalty" test_kernel_cost_occupancy;
    tc "kernel cost: broadcast discount" test_kernel_cost_broadcast_discount;
    tc "cpu model: thread scaling" test_cpu_model_scaling;
    tc "machine: presets and tracing" test_machine_presets;
    tc "machine: spec strings round-trip" test_machine_spec_roundtrip;
    tc "machine: spec canonical forms and grammar" test_machine_spec_canonical_forms;
    tc "cuda: malloc/memcpy/launch" test_cuda_api;
  ]
