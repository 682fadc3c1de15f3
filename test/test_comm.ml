(* Unit tests for the communication manager, reductions and launch-level
   behaviour that the end-to-end tests only exercise indirectly. *)

module Interval = Mgacc_util.Interval
module Memory = Mgacc_gpusim.Memory
module Machine = Mgacc_gpusim.Machine
module Cost = Mgacc_gpusim.Cost
open Mgacc_runtime

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let mk_cfg ?(num_gpus = 2) () = Rt_config.make ~num_gpus (Machine.desktop ())

let mk_da cfg name data =
  Darray.create cfg ~name ~host:(Mgacc_exec.View.of_float_array ~name data)

(* ---------------- Reduction merge ---------------- *)

let test_reduction_merge_values () =
  let cfg = mk_cfg () in
  let da = mk_da cfg "acc" [| 10.0; 20.0; 30.0 |] in
  let _ = Darray.ensure_replicated cfg da ~dirty_tracking:false in
  let red = Reduction.allocate cfg da Mgacc_minic.Ast.Rplus in
  Reduction.reduce_f red ~gpu:0 0 [| 5.0 |] 0;
  Reduction.reduce_f red ~gpu:0 2 [| 1.0 |] 0;
  Reduction.reduce_f red ~gpu:1 0 [| 7.0 |] 0;
  let m = Reduction.merge cfg red da ~ship:`Star in
  (* final = base + partial0 + partial1, on every replica. *)
  let r = Darray.replica_of da in
  List.iter
    (fun g ->
      let d = Memory.float_data r.Darray.bufs.(g) in
      check (Alcotest.float 1e-12) "elem 0" 22.0 d.(0);
      check (Alcotest.float 1e-12) "elem 1" 20.0 d.(1);
      check (Alcotest.float 1e-12) "elem 2" 31.0 d.(2))
    [ 0; 1 ];
  (* Traffic: gather from GPU 1 (it contributed) + broadcast to GPU 1. *)
  check Alcotest.int "two transfers" 2 (List.length m.Reduction.xfers);
  check Alcotest.bool "combine kernel charged" true
    (not (Cost.is_zero m.Reduction.combine_cost))

let test_reduction_merge_single_gpu () =
  let cfg = mk_cfg ~num_gpus:1 () in
  let da = mk_da cfg "acc" [| 1.0 |] in
  let _ = Darray.ensure_replicated cfg da ~dirty_tracking:false in
  let red = Reduction.allocate cfg da Mgacc_minic.Ast.Rmax in
  Reduction.reduce_f red ~gpu:0 0 [| 9.0 |] 0;
  let m = Reduction.merge cfg red da ~ship:`Star in
  check Alcotest.int "no transfers on one GPU" 0 (List.length m.Reduction.xfers);
  let r = Darray.replica_of da in
  check (Alcotest.float 1e-12) "max applied" 9.0 (Memory.float_data r.Darray.bufs.(0)).(0)

let test_reduction_partials_accounted () =
  let cfg = mk_cfg () in
  let da = mk_da cfg "acc" (Array.make 1000 0.0) in
  let _ = Darray.ensure_replicated cfg da ~dirty_tracking:false in
  let mem g = (Machine.device cfg.Rt_config.machine g).Mgacc_gpusim.Device.memory in
  let before = Memory.used_class (mem 0) `System in
  let red = Reduction.allocate cfg da Mgacc_minic.Ast.Rplus in
  check Alcotest.int "partial charged as system" (before + 8000) (Memory.used_class (mem 0) `System);
  let _ = Reduction.merge cfg red da ~ship:`Star in
  check Alcotest.int "partial freed after merge" before (Memory.used_class (mem 0) `System)

(* ---------------- Dirty merge via a program ---------------- *)

let run_acc ?(num_gpus = 2) ?chunk_bytes src =
  let config = Rt_config.make ~num_gpus ?chunk_bytes (Machine.desktop ()) in
  Mgacc.run_acc ~config (Mgacc.parse_string ~name:"t" src)

let test_merge_preserves_disjoint_writers () =
  (* GPU 0 owns iterations [0,500), GPU 1 [500,1000); each writes only its
     own disjoint region of the replicated array; merge must interleave
     both GPUs' contributions. *)
  let src =
    {|void main() {
        int n = 1000; double a[n]; int i;
        for (i = 0; i < n; i++) { a[i] = -1.0; }
        #pragma acc data copy(a[0:n])
        {
          #pragma acc parallel loop
          for (i = 0; i < n; i++) { a[(i + 500) % n] = 1.0 * i; }
        }
      }|}
  in
  let env, _ = run_acc src in
  let a = Mgacc.float_results env "a" in
  check (Alcotest.float 1e-12) "gpu0's write landed" 0.0 a.(500);
  check (Alcotest.float 1e-12) "gpu1's write landed" 999.0 a.(499);
  Array.iteri (fun i v -> if v < 0.0 then Alcotest.failf "a[%d] unwritten" i) a

let test_dirty_bytes_scale_with_chunks () =
  (* One dirty element: with small chunks the reconciliation ships one
     chunk (plus bits) to the peer. *)
  let src =
    {|void main() {
        int n = 8192; double a[n]; int i;
        for (i = 0; i < n; i++) { a[i] = 0.0; }
        #pragma acc data copy(a[0:n])
        {
          #pragma acc parallel loop
          for (i = 0; i < n; i++) { if (i == 0) { a[4096] = 1.0; } }
        }
      }|}
  in
  let _, r = run_acc ~chunk_bytes:1024 src in
  (* one 1KB chunk + 16B of first-level bits, one direction *)
  check Alcotest.int "one chunk ships" (1024 + 16) r.Mgacc.Report.gpu_gpu_bytes

(* ---------------- Halo exchange across several owners ---------------- *)

let test_halo_spans_multiple_owners () =
  (* 3 GPUs, equal split of 30 elements, right halo of 15: GPU 0's halo
     [10,25) crosses the GPU1/GPU2 ownership boundary and must be
     refreshed with one segment per owner. *)
  let module Fabric = Mgacc_gpusim.Fabric in
  let cfg = Rt_config.make ~num_gpus:3 (Machine.supernode ~num_gpus:3 ()) in
  let da = mk_da cfg "h" (Array.init 30 float_of_int) in
  let ranges = Task_map.split ~lower:0 ~upper:30 ~parts:3 in
  let spec = { Darray.stride = 1; left = 0; right = 15; tile = None } in
  let _ = Darray.ensure_distributed cfg da ~spec ~ranges in
  (* Owners write fresh values into their own blocks (device-side). *)
  let poke gpu logical v =
    let p = Darray.part_for da ~gpu in
    (Memory.float_data p.Darray.buf).(logical - p.Darray.window.Interval.lo) <- v
  in
  poke 1 12 999.0;
  poke 2 22 777.0;
  Darray.mark_device_written da;
  let ops = Comm_manager.halo_exchange cfg da in
  check Alcotest.int "one op per (owner, dst) segment" 3 (List.length ops);
  List.iter
    (fun (o : Comm_manager.op) ->
      check Alcotest.bool "kind" true (o.Comm_manager.kind = Comm_manager.Halo_segment))
    ops;
  let bytes_of dir =
    match List.find_opt (fun (o : Comm_manager.op) -> o.Comm_manager.dir = dir) ops with
    | Some o -> o.Comm_manager.bytes
    | None -> Alcotest.fail "missing halo segment"
  in
  (* GPU 0 needs [10,20) from GPU 1 and [20,25) from GPU 2; GPU 1 needs
     [20,30) from GPU 2; GPU 2's window holds no halo. *)
  check Alcotest.int "gpu1 -> gpu0 segment" (10 * 8) (bytes_of (Fabric.P2p (1, 0)));
  check Alcotest.int "gpu2 -> gpu0 segment" (5 * 8) (bytes_of (Fabric.P2p (2, 0)));
  check Alcotest.int "gpu2 -> gpu1 segment" (10 * 8) (bytes_of (Fabric.P2p (2, 1)));
  (* The functional copies landed in the halo regions. *)
  let peek gpu logical =
    let p = Darray.part_for da ~gpu in
    (Memory.float_data p.Darray.buf).(logical - p.Darray.window.Interval.lo)
  in
  check (Alcotest.float 1e-12) "gpu0 sees gpu1's write" 999.0 (peek 0 12);
  check (Alcotest.float 1e-12) "gpu0 sees gpu2's write" 777.0 (peek 0 22);
  check (Alcotest.float 1e-12) "gpu1 sees gpu2's write" 777.0 (peek 1 22);
  check Alcotest.bool "halo marked synced" false da.Darray.written_since_halo_sync

(* ---------------- Two-level dirty transfer bytes ---------------- *)

let test_transfer_bytes_matches_brute_force () =
  (* The O(1) incremental figure must match a from-scratch recount of the
     dirty chunks, including the clamped final chunk. *)
  let mem = Memory.create ~device_id:0 ~capacity:(1 lsl 20) in
  let elem_bytes = 8 and length = 1003 and chunk_bytes = 64 in
  let chunk_elems = chunk_bytes / elem_bytes in
  let d = Dirty.create mem ~elem_bytes ~length ~chunk_bytes ~two_level:true in
  let marked = Hashtbl.create 64 in
  let mark i =
    Dirty.mark d i;
    Hashtbl.replace marked i ()
  in
  (* A scattered pattern with repeats, dense runs and the tail chunk. *)
  List.iter mark [ 0; 1; 1; 7; 8; 64; 65; 500; 501; 502; 777; 1000; 1002; 1002 ];
  let brute_force () =
    let chunks = Hashtbl.create 16 in
    Hashtbl.iter (fun i () -> Hashtbl.replace chunks (i / chunk_elems) ()) marked;
    Hashtbl.fold
      (fun c () acc ->
        let lo = c * chunk_elems in
        let elems = min length (lo + chunk_elems) - lo in
        acc + (elems * elem_bytes) + ((elems + 7) / 8))
      chunks 0
  in
  check Alcotest.int "incremental = brute force" (brute_force ()) (Dirty.transfer_bytes d);
  (* Marking more of an already-dirty chunk must not change the figure. *)
  mark 2;
  check Alcotest.int "same chunk adds nothing" (brute_force ()) (Dirty.transfer_bytes d);
  (* A new chunk grows it by exactly one chunk's payload. *)
  let before = Dirty.transfer_bytes d in
  mark 200;
  check Alcotest.int "new chunk adds its payload"
    (before + (chunk_elems * elem_bytes) + ((chunk_elems + 7) / 8))
    (Dirty.transfer_bytes d);
  check Alcotest.int "still brute force" (brute_force ()) (Dirty.transfer_bytes d);
  Dirty.clear d;
  Hashtbl.reset marked;
  check Alcotest.int "clean after clear" 0 (Dirty.transfer_bytes d);
  mark 1002;
  (* Only the 3-element tail chunk: clamped payload plus one bit byte. *)
  check Alcotest.int "tail chunk clamps" ((3 * elem_bytes) + 1) (Dirty.transfer_bytes d);
  Dirty.free mem d

(* ---------------- Scalar firstprivate semantics ---------------- *)

let test_scalars_are_firstprivate () =
  (* A scalar assigned inside the loop must NOT leak back to the host
     (OpenACC firstprivate), unlike the OpenMP runner's shared scalars. *)
  let src =
    {|void main() {
        int n = 100; double a[n]; double t = 7.0; int i;
        #pragma acc parallel loop localaccess(a: stride(1))
        for (i = 0; i < n; i++) { t = 1.0 * i; a[i] = t; }
      }|}
  in
  let env, _ = run_acc src in
  (match Mgacc.Host_interp.get_scalar env "t" with
  | Mgacc.Host_interp.Vfloat t -> check (Alcotest.float 1e-12) "t untouched" 7.0 t
  | _ -> Alcotest.fail "t kind");
  let a = Mgacc.float_results env "a" in
  check (Alcotest.float 1e-12) "private use worked" 99.0 a.(99)

let test_empty_iteration_space () =
  let src =
    {|void main() {
        int n = 0; double a[10]; int i;
        for (i = 0; i < 10; i++) { a[i] = 3.0; }
        #pragma acc parallel loop localaccess(a: stride(1))
        for (i = 0; i < n; i++) { a[i] = 9.0; }
      }|}
  in
  let env, report = run_acc src in
  let a = Mgacc.float_results env "a" in
  check (Alcotest.float 1e-12) "nothing written" 3.0 a.(0);
  check Alcotest.int "loop still counted" 1 report.Mgacc.Report.loops

(* ---------------- OpenMP runner ---------------- *)

let test_openmp_shared_scalars () =
  (* Sequential in-order semantics: the last iteration's assignment is
     visible after the loop (C/OpenMP shared scalar, race-free here). *)
  let src =
    {|void main() {
        int n = 10; double a[n]; double last = 0.0; int i;
        #pragma acc parallel loop
        for (i = 0; i < n; i++) { a[i] = 1.0; last = 1.0 * i; }
      }|}
  in
  let env, _ = Mgacc.run_openmp ~machine:(Machine.desktop ()) (Mgacc.parse_string ~name:"t" src) in
  match Mgacc.Host_interp.get_scalar env "last" with
  | Mgacc.Host_interp.Vfloat v -> check (Alcotest.float 1e-12) "shared write-back" 9.0 v
  | _ -> Alcotest.fail "kind"

let test_openmp_thread_count_matters () =
  let src =
    {|void main() {
        int n = 200000; double a[n]; int i;
        #pragma acc parallel loop
        for (i = 0; i < n; i++) { a[i] = sqrt(1.0 * i) * 2.0 + 1.0; }
      }|}
  in
  let program = Mgacc.parse_string ~name:"t" src in
  let _, r1 = Mgacc.run_openmp ~threads:1 ~machine:(Machine.desktop ()) program in
  let _, r12 = Mgacc.run_openmp ~threads:12 ~machine:(Machine.desktop ()) program in
  check Alcotest.bool "12 threads much faster" true
    (r12.Mgacc.Report.total_time < r1.Mgacc.Report.total_time /. 3.0)

(* ---------------- Report ---------------- *)

let test_report_speedup () =
  let report ~seconds ~variant ~num_gpus =
    let p = Profiler.create () in
    Profiler.charge p Mgacc_obs.Blame.Kernel ~label:"k" ~exposed:seconds ~hidden:0.0 ~bytes:0
      ~spans:[];
    Report.of_profiler p ~machine:"m" ~variant ~num_gpus
  in
  let base = report ~seconds:2.0 ~variant:"omp" ~num_gpus:0 in
  let r = report ~seconds:0.5 ~variant:"acc" ~num_gpus:2 in
  check (Alcotest.float 1e-12) "speedup" 4.0 (Report.speedup_vs r ~baseline:base);
  check Alcotest.int "gpus" 2 r.Report.num_gpus

(* ---------------- Host-to-device loads ---------------- *)

module View = Mgacc_exec.View

(* A host view of [n] elements holding [7i - 3] (a quarter of it in a
   double view) whose accessors raise [View.Bounds] out of range and at
   [poison], an index outside the read window [\[wlo, whi)]. With
   [~windowed:false] the window is empty, so a load calls the accessors
   for every element, as loads did before they read the window in
   place. *)
let host_view ~ints ~n ~wlo ~whi ~poison ~windowed =
  let name = "h" in
  let fail i = raise (View.Bounds { name; index = i; length = n }) in
  let bad i = i < 0 || i >= n || poison = Some i in
  let lo, hi = if windowed then (wlo, whi) else (0, 0) in
  let value i = (7 * i) - 3 in
  if ints then
    View.ints ~name ~length:n ~data:(Array.init (hi - lo) (fun k -> value (lo + k))) ~lo ~hi
      ~get_i:(fun i -> if bad i then fail i else value i)
      ~set_i:(fun i _ -> fail i)
      ~reduce_i:(fun _ i _ -> fail i)
  else
    let f i = float_of_int (value i) /. 4.0 in
    View.doubles ~name ~length:n ~data:(Array.init (hi - lo) (fun k -> f (lo + k))) ~lo ~hi
      ~load_f:(fun i bank slot -> if bad i then fail i else bank.(slot) <- f i)
      ~store_f:(fun i _ _ -> fail i)
      ~reduce_f:(fun _ i _ _ -> fail i)

(* Place an array over [host] on a fresh 2x2 cluster and return what the
   load raised, if anything, and every device buffer's contents. *)
let load_outcome layout host =
  let cfg gpus = Rt_config.make ~num_gpus:gpus (Machine.cluster ~nodes:2 ~gpus_per_node:2 ()) in
  let n = host.View.length in
  let placed cfg f =
    let da = Darray.create cfg ~name:"h" ~host in
    let raised = match f da with _ -> None | exception e -> Some e in
    let bufs =
      match da.Darray.state with
      | Darray.Replicated r -> Array.to_list r.Darray.bufs
      | Darray.Distributed d -> List.map (fun (p : Darray.part) -> p.Darray.buf) (Array.to_list d.Darray.parts)
      | Darray.Unallocated -> []
    in
    let contents buf =
      match host.View.elem with
      | Mgacc_minic.Ast.Edouble -> `F (Array.copy (Memory.float_data buf))
      | Mgacc_minic.Ast.Eint -> `I (Array.copy (Memory.int_data buf))
    in
    (raised, List.map contents bufs)
  in
  match layout with
  | `Replicated gpus ->
      let cfg = cfg gpus in
      placed cfg (fun da -> Darray.ensure_replicated cfg da ~dirty_tracking:false)
  | `Distributed (gpus, left, right) ->
      let cfg = cfg gpus in
      let ranges = Task_map.split ~lower:0 ~upper:n ~parts:gpus in
      placed cfg (fun da ->
          Darray.ensure_distributed cfg da ~spec:{ Darray.stride = 1; left; right; tile = None } ~ranges)
  | `Tiled (stride, row_halo, col_halo) ->
      let cfg = cfg 4 in
      let rows = Task_map.split ~lower:0 ~upper:(n / stride) ~parts:2 in
      let tile =
        { Darray.pr = 2; pc = 2; row_left = row_halo; row_right = row_halo; col_left = col_halo; col_right = col_halo }
      in
      placed cfg (fun da ->
          Darray.ensure_distributed cfg da
            ~spec:{ Darray.stride; left = 0; right = 0; tile = Some tile }
            ~ranges:(Array.init 4 (fun g -> rows.(g / 2))))

let gen_load_case =
  QCheck2.Gen.(
    let* ints = bool in
    let* layout =
      oneof
        [
          map (fun g -> `Replicated g) (int_range 1 4);
          map3 (fun g l r -> `Distributed (g, l, r)) (int_range 1 4) (int_bound 3) (int_bound 3);
          map3 (fun s rh ch -> `Tiled (s, rh, ch)) (int_range 1 5) (int_bound 1) (int_bound 1);
        ]
    in
    let* rows = int_range 1 12 in
    let* short = int_bound 2 in
    let n = match layout with `Tiled (stride, _, _) -> rows * stride | _ -> (rows * 3) - short in
    let* a = int_bound n in
    let* b = int_bound n in
    let wlo = min a b and whi = max a b in
    let outside = List.filter (fun i -> i < wlo || i >= whi) (List.init n Fun.id) in
    let* poison =
      if outside = [] then return None else option (oneofl outside)
    in
    return (ints, layout, n, wlo, whi, poison))

let show_load_case (ints, layout, n, wlo, whi, poison) =
  Printf.sprintf "%s n=%d window=[%d,%d) poison=%s %s" (if ints then "int" else "double") n wlo whi
    (match poison with Some p -> string_of_int p | None -> "none")
    (match layout with
    | `Replicated g -> Printf.sprintf "replicated on %d" g
    | `Distributed (g, l, r) -> Printf.sprintf "distributed on %d, halos %d/%d" g l r
    | `Tiled (s, rh, ch) -> Printf.sprintf "tiled 2x2, stride %d, halos %d/%d" s rh ch)

let prop_loads_match_accessors (ints, layout, n, wlo, whi, poison) =
  let outcome windowed = load_outcome layout (host_view ~ints ~n ~wlo ~whi ~poison ~windowed) in
  outcome true = outcome false

let suite =
  [
    tc "reduction: merge folds partials into replicas" test_reduction_merge_values;
    tc "reduction: single GPU needs no traffic" test_reduction_merge_single_gpu;
    tc "reduction: partials charged and freed as system memory" test_reduction_partials_accounted;
    tc "comm: disjoint writers merge losslessly" test_merge_preserves_disjoint_writers;
    tc "comm: chunk granularity bounds shipped bytes" test_dirty_bytes_scale_with_chunks;
    tc "comm: halo interval spanning several owners" test_halo_spans_multiple_owners;
    tc "comm: two-level transfer bytes match brute force" test_transfer_bytes_matches_brute_force;
    tc "launch: scalars are firstprivate" test_scalars_are_firstprivate;
    tc "launch: empty iteration space" test_empty_iteration_space;
    tc "openmp: shared scalar semantics" test_openmp_shared_scalars;
    tc "openmp: thread scaling visible" test_openmp_thread_count_matters;
    tc "report: speedup arithmetic" test_report_speedup;
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"loads: the host window equals the accessors, errors included"
         ~print:show_load_case gen_load_case prop_loads_match_accessors);
  ]
