(* Second coverage battery: edge cases and behaviors not exercised by the
   primary suites — newer directives (if, enter/exit data), 2-D parameters,
   fabric asymmetries, runtime error paths, chrome-trace output. *)

open Mgacc_minic
module Fabric = Mgacc_gpusim.Fabric
module Spec = Mgacc_gpusim.Spec
module Kernel_cost = Mgacc_gpusim.Kernel_cost
module Cost = Mgacc_gpusim.Cost
module Trace = Mgacc_sim.Trace

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---------------- frontend ---------------- *)

let test_if_clause_roundtrip () =
  let d s = Pretty.directive_to_string (Parser.parse_directive ~file:"t" ~line:1 s) in
  check Alcotest.string "if clause" "acc parallel loop if((n > 4096)) reduction(+: s)"
    (d "acc parallel loop if(n > 4096) reduction(+: s)")

let test_enter_exit_roundtrip () =
  let d s = Pretty.directive_to_string (Parser.parse_directive ~file:"t" ~line:1 s) in
  check Alcotest.string "enter" "acc enter data copyin(a[0:n])" (d "acc enter data copyin(a[0:n])");
  check Alcotest.string "exit" "acc exit data copyout(a[0:n])" (d "acc exit data copyout(a[0:n])");
  match Parser.parse_directive ~file:"t" ~line:1 "acc enter copyin(a)" with
  | exception Loc.Error _ -> ()
  | _ -> Alcotest.fail "enter without data must fail"

let test_2d_params () =
  let p =
    Parser.parse ~file:"t"
      {|double trace_sum(int n, double m[][n]) {
          double s = 0.0; int i;
          for (i = 0; i < n; i++) { s += m[i][i]; }
          return s;
        }
        void main() {
          int n = 4;
          double m[n][n];
          int i; int j;
          for (i = 0; i < n; i++) { for (j = 0; j < n; j++) { m[i][j] = 1.0 * (i * 10 + j); } }
          double out[1];
          out[0] = trace_sum(n, m);
        }|}
  in
  Typecheck.check_program p;
  let env = Mgacc.Host_interp.run_program p in
  let out = Mgacc.float_results env "out" in
  check (Alcotest.float 1e-12) "diagonal sum" 66.0 out.(0)

let test_for_decl_init_parallel () =
  (* "for (int i = 0; ...)" must normalize as a parallel loop. *)
  let src =
    {|void main() { int n = 16; double a[n];
#pragma acc parallel loop
for (int i = 0; i < n; i++) { a[i] = 2.0 * i; } }|}
  in
  let env = Mgacc.run_sequential (Mgacc.parse_string ~name:"t" src) in
  check (Alcotest.float 1e-12) "computed" 30.0 (Mgacc.float_results env "a").(15)

let test_interp_short_circuit () =
  (* && and || must not evaluate their right operand when decided: the
     guard pattern idx >= 0 && a[idx] protects the bounds. *)
  let src =
    {|void main() { double a[4]; int i = 0 - 1; double out[1];
        a[0] = 5.0;
        if (i >= 0 && a[i] > 0.0) { out[0] = 1.0; } else { out[0] = 2.0; }
        if (i < 0 || a[i] > 0.0) { out[0] = out[0] + 10.0; }
      }|}
  in
  let env = Mgacc.run_sequential (Mgacc.parse_string ~name:"t" src) in
  check (Alcotest.float 1e-12) "short circuit" 12.0 (Mgacc.float_results env "out").(0)

let test_interp_int_division_truncates () =
  let src =
    {|void main() { int out[4];
        out[0] = 7 / 2; out[1] = (0 - 7) / 2; out[2] = 7 % 3; out[3] = (0 - 7) % 3;
      }|}
  in
  let env = Mgacc.run_sequential (Mgacc.parse_string ~name:"t" src) in
  check (Alcotest.array Alcotest.int) "C semantics" [| 3; -3; 1; -1 |]
    (Mgacc.int_results env "out")

(* ---------------- analysis ---------------- *)

let test_affine_offset_expr_eval () =
  let e = Parser.parse_expr ~file:"t" "3*i + off + 2" in
  match
    Mgacc_analysis.Affine.of_expr ~loop_var:"i" ~is_uniform:(fun v -> v = "off") e
  with
  | Some a ->
      (* The offset part is [const + terms]; evaluate it with off = 10
         through the host interpreter machinery. *)
      let offset =
        String.concat " + "
          (string_of_int a.Mgacc_analysis.Affine.const
          :: List.map Pretty.expr_to_string a.Mgacc_analysis.Affine.terms)
      in
      let src = Printf.sprintf "void main() { int off = 10; int out[1]; out[0] = %s; }" offset in
      let env = Mgacc.run_sequential (Mgacc.parse_string ~name:"t" src) in
      check Alcotest.int "offset evaluates" 12 (Mgacc.int_results env "out").(0)
  | None -> Alcotest.fail "affine expected"

(* For failure messages. *)
let mode_name = function
  | Mgacc_analysis.Coalesce.Broadcast -> "broadcast"
  | Mgacc_analysis.Coalesce.Coalesced -> "coalesced"
  | Mgacc_analysis.Coalesce.Strided s -> Printf.sprintf "strided(%d)" s
  | Mgacc_analysis.Coalesce.Random -> "random"

let test_symbolic_linearity_units () =
  let l =
    let p =
      Parser.parse ~file:"t"
        {|void main() { int n = 8; int w = 3; double a[n*w]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { a[i*w] = 1.0; } }|}
    in
    List.hd (Mgacc_analysis.Loop_info.extract (Option.get (Ast.find_func p "main")))
  in
  let cls = Mgacc_analysis.Coalesce.make l in
  (match cls (Parser.parse_expr ~file:"t" "i*w") with
  | Mgacc_analysis.Coalesce.Strided 0 -> ()
  | m -> Alcotest.failf "i*w: %s" (mode_name m));
  (match cls (Parser.parse_expr ~file:"t" "w*i + w") with
  | Mgacc_analysis.Coalesce.Strided 0 -> ()
  | m -> Alcotest.failf "w*i+w: %s" (mode_name m));
  match cls (Parser.parse_expr ~file:"t" "i*i") with
  | Mgacc_analysis.Coalesce.Random -> ()
  | m -> Alcotest.failf "i*i: %s" (mode_name m)

(* ---------------- gpusim ---------------- *)

let test_fabric_direction_asymmetry () =
  let f = Fabric.create Spec.pcie_gen2_desktop ~num_gpus:2 in
  let bytes = 100_000_000 in
  let h2d = Fabric.transfer_time_alone f (Fabric.H2d 0) ~bytes in
  let d2h = Fabric.transfer_time_alone f (Fabric.D2h 0) ~bytes in
  let p2p = Fabric.transfer_time_alone f (Fabric.P2p (0, 1)) ~bytes in
  check Alcotest.bool "d2h slower than h2d" true (d2h > h2d);
  check Alcotest.bool "p2p slowest" true (p2p > d2h);
  match Ref_fabric.finishes f [ { Ref_fabric.direction = Fabric.P2p (0, 0); bytes; ready = 0.0; tag = "x" } ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self P2P must be rejected"

(* Occupancy divides a launch's work: it saturates at 1, never falls
   below 1e-3, and zero threads count as full occupancy. *)
let test_occupancy_bounds () =
  let g = Spec.tesla_c2075 in
  let c = Cost.zero () in
  c.Cost.flops <- 1_000_000;
  let work threads = Kernel_cost.duration g ~threads c -. g.Spec.kernel_launch_overhead in
  check (Alcotest.float 0.0) "saturates at 1" (work 10_000_000) (work 100_000_000);
  check Alcotest.bool "floor above zero" true
    (work 1 <= work 10_000_000 /. 1e-3 *. (1.0 +. 1e-9));
  check (Alcotest.float 0.0) "zero threads neutral" (work 10_000_000) (work 0)

let test_l2_hit_monotone () =
  let c = Cost.zero () in
  c.Cost.random_accesses <- 1_000_000;
  c.Cost.random_bytes <- 8_000_000;
  let lo = { Spec.tesla_c2075 with Spec.l2_hit_ratio = 0.0 } in
  let hi = { Spec.tesla_c2075 with Spec.l2_hit_ratio = 0.9 } in
  check Alcotest.bool "more hits, less time" true
    (Kernel_cost.memory_time hi c < Kernel_cost.memory_time lo c)

let test_chrome_json_valid_shape () =
  let t = Trace.create () in
  ignore
    (Trace.record t ~resource:"gpu0" ~category:Trace.Kernel ~label:"k\"quote" ~start:0.0
       ~finish:1e-3 ~bytes:0 ());
  ignore
    (Trace.record t ~resource:"pcie:h2d0" ~category:Trace.Host_to_device ~label:"load" ~start:0.0
       ~finish:2e-3 ~bytes:42 ());
  let s = Trace.to_chrome_json t in
  check Alcotest.bool "escaped quote" true
    (String.length s > 0 && not (String.equal s "[]"));
  (* Structure sanity: balanced brackets, one event name per span + thread
     metadata entries. *)
  let count sub =
    let n = ref 0 in
    let sl = String.length sub in
    for i = 0 to String.length s - sl do
      if String.sub s i sl = sub then incr n
    done;
    !n
  in
  check Alcotest.int "two complete events" 2 (count "\"ph\":\"X\"");
  check Alcotest.int "two thread names" 2 (count "thread_name");
  check Alcotest.int "bytes arg" 1 (count "\"bytes\":42")

(* ---------------- runtime error paths ---------------- *)

let run_acc ?(num_gpus = 2) src =
  let config = Mgacc.Rt_config.make ~num_gpus (Mgacc.Machine.desktop ()) in
  Mgacc.run_acc ~config (Mgacc.parse_string ~name:"t" src)

let test_rt_config_validation () =
  let m = Mgacc.Machine.desktop () in
  (match Mgacc.Rt_config.make ~num_gpus:5 m with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "too many GPUs");
  (match Mgacc.Rt_config.make ~chunk_bytes:4 m with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "chunk too small");
  (* the legacy [~machine] of [run_acc] must be the config's own *)
  let program = Mgacc.parse_string ~name:"t" "void main() { int x; x = 1; }" in
  let config = Mgacc.Rt_config.make (Mgacc.Machine.desktop ()) in
  match Mgacc.run_acc ~machine:m ~config program with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "run_acc ran on a machine other than the config's"

(* The mode-switch table is the CLI's and the library's one spelling of
   every switch: each spelling round-trips, the first is the library
   default, a switch writes only its own field, and a bad spelling is
   an error naming the switch and its spellings. *)
let test_rt_config_switches () =
  let module R = Mgacc.Rt_config in
  let ok = function Ok cfg -> cfg | Error e -> Alcotest.fail e in
  let desktop = R.make (Mgacc.Machine.desktop ()) in
  (* Every field away from its default, so a setter that resets a
     neighbour cannot hide behind the defaults. *)
  let flipped =
    R.make ~num_gpus:1 ~chunk_bytes:4096 ~two_level_dirty:false ~overlap:true ~coherence:R.Lazy
      ~collective:R.Auto ~schedule:Mgacc.Sched_policy.Adaptive ~keep_resident:true
      ~translator:
        {
          Mgacc.Kernel_plan.enable_distribution = false;
          enable_layout_transform = false;
          enable_miss_check_elim = false;
          enable_fusion = true;
          enable_decomp2d = true;
        }
      (Mgacc.Machine.desktop ())
  in
  check (Alcotest.list Alcotest.string) "switch names"
    [ "overlap"; "coherence"; "collective"; "fuse"; "decomp" ]
    (List.map (fun (s : R.switch) -> s.R.name) R.switches);
  List.iter
    (fun { R.name; spellings; read; _ } ->
      check Alcotest.string (name ^ ": default spelled first") (List.hd spellings) (read desktop);
      List.iter
        (fun base ->
          List.iter
            (fun v ->
              let cfg = ok (R.set base name v) in
              check Alcotest.string (name ^ " reads back " ^ v) v (read cfg);
              (* Restoring the switch gives [base] back: nothing else moved. *)
              check Alcotest.bool (name ^ "=" ^ v ^ " writes only its own field") true
                (compare (ok (R.set cfg name (read base))) base = 0))
            spellings)
        [ desktop; flipped ];
      check
        (Alcotest.result Alcotest.reject Alcotest.string)
        (name ^ ": a bad spelling names the switch and its spellings")
        (Error (Printf.sprintf "unknown %s mode \"bogus\" (%s)" name (String.concat "|" spellings)))
        (R.set desktop name "bogus"))
    R.switches

let test_plain_write_to_reduction_dest_rejected () =
  let src =
    {|void main() { int n = 32; double h[4]; double x[n]; int i;
        for (i = 0; i < 4; i++) { h[i] = 0.0; }
        for (i = 0; i < n; i++) { x[i] = 1.0; }
        #pragma acc parallel loop
        for (i = 0; i < n; i++) {
          #pragma acc reductiontoarray(+: h)
          h[i % 4] += x[i];
          h[0] = 3.0;
        }
      }|}
  in
  match run_acc src with
  | exception Loc.Error (loc, msg) ->
      check Alcotest.int "at the store" 8 loc.Loc.line;
      check Alcotest.string "names the array"
        "plain write to h, a reductiontoarray destination of this loop" msg
  | _ -> Alcotest.fail "plain write to a reduction destination must fail"

let test_present_clause_checks () =
  let src =
    {|void main() { int n = 8; double a[n]; int i;
        #pragma acc data present(a[0:n])
        {
          #pragma acc parallel loop
          for (i = 0; i < n; i++) { a[i] = 1.0; }
        }
      }|}
  in
  match run_acc src with
  | exception Loc.Error (_, msg) ->
      check Alcotest.bool "mentions present" true (String.length msg > 0)
  | _ -> Alcotest.fail "present() on absent array must fail"

(* The error points at the directive, not at a dummy location. *)
let test_present_error_location () =
  let src = "void main() { int n = 8; double a[n];\n  #pragma acc data present(a)\n  { }\n}\n" in
  let config = Mgacc.Rt_config.make (Mgacc.Machine.desktop ()) in
  match Mgacc.run_acc ~config (Mgacc.parse_string ~name:"present.c" src) with
  | exception Loc.Error (loc, msg) ->
      check Alcotest.string "file" "present.c" loc.Loc.file;
      check Alcotest.int "line" 2 loc.Loc.line;
      check Alcotest.string "message" "present(a): array is not on the device" msg
  | _ -> Alcotest.fail "present() on absent array must fail"

let test_nested_data_regions () =
  let src =
    {|void main() { int n = 64; double a[n]; int i;
        for (i = 0; i < n; i++) { a[i] = 1.0; }
        #pragma acc data copy(a[0:n])
        {
          #pragma acc data present(a[0:n])
          {
            #pragma acc parallel loop localaccess(a: stride(1))
            for (i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
          }
          #pragma acc parallel loop localaccess(a: stride(1))
          for (i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
        }
      }|}
  in
  let env, _ = run_acc src in
  check (Alcotest.float 1e-12) "nested regions" 4.0 (Mgacc.float_results env "a").(0)

let test_gang_worker_clauses_accepted () =
  let src =
    {|void main() { int n = 64; double a[n]; int i;
        #pragma acc parallel loop gang worker vector(64) independent localaccess(a: stride(1))
        for (i = 0; i < n; i++) { a[i] = 1.0 * i; }
      }|}
  in
  let env, _ = run_acc src in
  check (Alcotest.float 1e-12) "ran" 63.0 (Mgacc.float_results env "a").(63)

(* ---------------- cluster topology ---------------- *)

let test_cluster_fabric_paths () =
  let topo =
    { Fabric.gpus_per_node = 2; internode_bandwidth = 3.2e9; internode_latency = 25e-6 }
  in
  let f = Fabric.create ~topology:topo Spec.pcie_gen2_desktop ~num_gpus:4 in
  check Alcotest.int "node of gpu 0" 0 (Fabric.node_of f 0);
  check Alcotest.int "node of gpu 3" 1 (Fabric.node_of f 3);
  let intra = Fabric.standalone_bandwidth f (Fabric.P2p (0, 1)) in
  let inter = Fabric.standalone_bandwidth f (Fabric.P2p (0, 2)) in
  check Alcotest.bool "intra-node faster" true (intra > inter);
  check (Alcotest.float 1.0) "inter-node capped by the wire" 3.2e9 inter;
  let t_intra = Fabric.transfer_time_alone f (Fabric.P2p (0, 1)) ~bytes:1_000_000 in
  let t_inter = Fabric.transfer_time_alone f (Fabric.P2p (0, 2)) ~bytes:1_000_000 in
  check Alcotest.bool "inter-node pays network latency too" true (t_inter > t_intra)

let test_cluster_runs_apps_correctly () =
  (* The whole runtime on a 2x2 cluster: results must still be exact. *)
  let machine = Mgacc.Machine.cluster ~nodes:2 ~gpus_per_node:2 () in
  check Alcotest.int "four GPUs" 4 (Mgacc.Machine.num_gpus machine);
  let app = Mgacc_apps.Bfs.app { Mgacc_apps.Bfs.nodes = 1200; max_degree = 5; seed = 3 } in
  let ref_env = Mgacc_apps.App_common.sequential app in
  let config = Mgacc.Rt_config.make ~num_gpus:4 machine in
  let env, report =
    Mgacc.run_acc ~config
      (Mgacc.parse_string ~name:"bfs.c" app.Mgacc_apps.App_common.source)
  in
  Mgacc_apps.App_common.check_exn app ~against:ref_env env;
  check Alcotest.bool "cross-node reconciliation happened" true
    (report.Mgacc.Report.gpu_gpu_bytes > 0)

let test_cluster_internode_slower_than_intranode () =
  (* BFS reconciliation across 2 GPUs: one node vs split across two nodes
     (1 GPU each). Same traffic, slower wire. *)
  let app = Mgacc_apps.Bfs.app { Mgacc_apps.Bfs.nodes = 6000; max_degree = 8; seed = 3 } in
  let program = Mgacc.parse_string ~name:"bfs.c" app.Mgacc_apps.App_common.source in
  let m1 = Mgacc.Machine.cluster ~nodes:1 ~gpus_per_node:2 () in
  let _, same_node = Mgacc.run_acc ~config:(Mgacc.Rt_config.make ~num_gpus:2 m1) program in
  let m2 = Mgacc.Machine.cluster ~nodes:2 ~gpus_per_node:1 () in
  let _, split = Mgacc.run_acc ~config:(Mgacc.Rt_config.make ~num_gpus:2 m2) program in
  check Alcotest.bool "similar traffic" true
    (abs (same_node.Mgacc.Report.gpu_gpu_bytes - split.Mgacc.Report.gpu_gpu_bytes)
    < same_node.Mgacc.Report.gpu_gpu_bytes / 4);
  check Alcotest.bool "wire hurts" true
    (split.Mgacc.Report.gpu_gpu_time > 1.2 *. same_node.Mgacc.Report.gpu_gpu_time)

let suite =
  [
    tc "cluster: fabric paths and latencies" test_cluster_fabric_paths;
    tc "cluster: 2x2 runs BFS exactly" test_cluster_runs_apps_correctly;
    tc "cluster: inter-node reconciliation slower" test_cluster_internode_slower_than_intranode;
    tc "frontend: if clause round trip" test_if_clause_roundtrip;
    tc "frontend: enter/exit data round trip" test_enter_exit_roundtrip;
    tc "frontend: 2-D VLA parameters" test_2d_params;
    tc "frontend: for-decl-init parallel loops" test_for_decl_init_parallel;
    tc "interp: short-circuit evaluation" test_interp_short_circuit;
    tc "interp: integer division truncates" test_interp_int_division_truncates;
    tc "analysis: affine offset expression evaluates" test_affine_offset_expr_eval;
    tc "analysis: symbolic linearity units" test_symbolic_linearity_units;
    tc "fabric: direction asymmetry and self-P2P" test_fabric_direction_asymmetry;
    tc "kernel cost: occupancy bounds" test_occupancy_bounds;
    tc "kernel cost: L2 hit ratio monotone" test_l2_hit_monotone;
    tc "trace: chrome json shape" test_chrome_json_valid_shape;
    tc "runtime: config validation" test_rt_config_validation;
    tc "runtime: mode switch table" test_rt_config_switches;
    tc "runtime: plain write to reduction dest rejected" test_plain_write_to_reduction_dest_rejected;
    tc "runtime: present() checks" test_present_clause_checks;
    tc "runtime: present() error names the directive" test_present_error_location;
    tc "runtime: nested data regions" test_nested_data_regions;
    tc "runtime: gang/worker/vector clauses accepted" test_gang_worker_clauses_accepted;
  ]
