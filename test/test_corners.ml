(* Final coverage batch: public-API corners not touched elsewhere —
   builtins, locations, byte formatting, CUDA peer copies, view snapshots,
   pretty-printing of every statement form, OpenMP thread clamping,
   update-device on distributed arrays. *)

open Mgacc_minic
module Cuda = Mgacc_gpusim.Cuda
module Machine = Mgacc_gpusim.Machine
module Memory = Mgacc_gpusim.Memory
module Cost = Mgacc_gpusim.Cost

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let test_builtins_table () =
  List.iter
    (fun (name, args, expected) ->
      check (Alcotest.float 1e-9) name expected (Builtins.apply_double name args))
    [
      ("sqrt", [ 9.0 ], 3.0);
      ("fabs", [ -2.5 ], 2.5);
      ("pow", [ 2.0; 8.0 ], 256.0);
      ("floor", [ 2.9 ], 2.0);
      ("ceil", [ 2.1 ], 3.0);
      ("fmin", [ 1.0; 2.0 ], 1.0);
      ("fmax", [ 1.0; 2.0 ], 2.0);
    ];
  check Alcotest.int "abs" 5 (Builtins.apply_int "abs" [ -5 ]);
  check Alcotest.int "min" 2 (Builtins.apply_int "min" [ 2; 7 ]);
  check Alcotest.int "max" 7 (Builtins.apply_int "max" [ 2; 7 ]);
  check Alcotest.bool "is_builtin" true (Builtins.is_builtin "sqrt");
  check Alcotest.bool "not builtin" false (Builtins.is_builtin "frobnicate");
  match Builtins.apply_double "sqrt" [ 1.0; 2.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity check"

let test_loc_formatting () =
  let loc = Loc.make ~file:"prog.c" ~line:12 ~col:5 in
  check Alcotest.string "to_string" "prog.c:12:5" (Loc.to_string loc);
  match Loc.error loc "bad %s" "thing" with
  | exception Loc.Error (l, msg) ->
      check Alcotest.string "payload" "bad thing" msg;
      check Alcotest.int "line" 12 l.Loc.line
  | _ -> Alcotest.fail "error must raise"

let test_pretty_every_statement () =
  (* One program touching each statement form round-trips. *)
  let src =
    {|int helper(int v) {
  if (v > 0) { return v; }
  return 0 - v;
}
void main() {
  int n = 4;
  double a[n];
  int i = 0;
  while (i < n) { a[i] = 1.0; i++; }
  for (i = 0; i < n; i++) {
    if (i == 2) { continue; }
    if (i == 3) { break; }
    a[i] += 0.5;
  }
  i--;
  a[0] *= 2.0;
  a[1] /= 2.0;
  a[2] -= 1.0;
  helper(3);
  {
    int shadow = 1;
    a[shadow] = 0.0;
  }
}
|}
  in
  let p1 = Parser.parse ~file:"t" src in
  Typecheck.check_program p1;
  let s1 = Pretty.program_to_string p1 in
  let p2 = Parser.parse ~file:"t" s1 in
  check Alcotest.string "fixpoint" s1 (Pretty.program_to_string p2);
  (* And the two executions agree. *)
  let e1 = Mgacc.run_sequential p1 and e2 = Mgacc.run_sequential p2 in
  check
    (Alcotest.array (Alcotest.float 0.0))
    "same results" (Mgacc.float_results e1 "a") (Mgacc.float_results e2 "a")

let test_cuda_p2p_and_charges () =
  let m = Machine.desktop () in
  let ctx = Cuda.init m in
  let a = Cuda.malloc_floats ctx 16 in
  Cuda.memcpy_h2d_floats ctx ~dst:a (Array.init 16 float_of_int);
  Cuda.set_device ctx 1;
  let b = Cuda.malloc_floats ctx 16 in
  let t0 = Cuda.now ctx in
  Cuda.memcpy_p2p_floats ctx ~dst:b ~src:a;
  check Alcotest.bool "p2p advances clock" true (Cuda.now ctx > t0);
  check (Alcotest.float 1e-12) "p2p copies" 13.0 (Memory.float_data b).(13);
  let t1 = Cuda.now ctx in
  Cuda.charge_d2h ctx ~bytes:0 ~label:"nothing";
  check (Alcotest.float 1e-12) "zero bytes free" t1 (Cuda.now ctx);
  Cuda.charge_h2d ctx ~bytes:1024 ~label:"conceptual";
  check Alcotest.bool "charge advances" true (Cuda.now ctx > t1)

let test_view_snapshots () =
  let v = Mgacc_exec.View.of_float_array ~name:"x" [| 1.0; 2.0 |] in
  let snap = Mgacc_exec.View.snapshot_f v in
  v.Mgacc_exec.View.store_f 0 [| 9.0 |] 0;
  check (Alcotest.float 1e-12) "snapshot is a copy" 1.0 snap.(0);
  match Mgacc_exec.View.snapshot_i v with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "typed snapshot"

let test_openmp_thread_clamp () =
  (* Requesting more threads than the hardware has must clamp, not crash,
     and cannot be faster than the full hardware count by much. *)
  let src =
    {|void main() { int n = 100000; double a[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { a[i] = sqrt(1.0 * i); } }|}
  in
  let program = Mgacc.parse_string ~name:"t" src in
  let _, r12 = Mgacc.run_openmp ~threads:12 ~machine:(Machine.desktop ()) program in
  let _, r99 = Mgacc.run_openmp ~threads:99 ~machine:(Machine.desktop ()) program in
  check (Alcotest.float 1e-12) "clamped" r12.Mgacc.Report.total_time r99.Mgacc.Report.total_time

let test_update_device_distributed () =
  (* Host mutates between kernels; update device must push into the live
     partitions of a distributed array. *)
  let src =
    {|void main() {
        int n = 800; double a[n]; int i;
        for (i = 0; i < n; i++) { a[i] = 1.0; }
        #pragma acc data copy(a[0:n])
        {
          #pragma acc parallel loop localaccess(a: stride(1))
          for (i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
          #pragma acc update host(a[0:n])
          ;
          for (i = 0; i < n; i++) { a[i] = a[i] * 3.0; }
          #pragma acc update device(a[0:n])
          ;
          #pragma acc parallel loop localaccess(a: stride(1))
          for (i = 0; i < n; i++) { a[i] = a[i] + 0.25; }
        }
      }|}
  in
  let config = Mgacc.Rt_config.make ~num_gpus:2 (Machine.desktop ()) in
  let env, _ = Mgacc.run_acc ~config (Mgacc.parse_string ~name:"t" src) in
  check (Alcotest.float 1e-12) "value" 6.25 (Mgacc.float_results env "a").(500)

let test_bytesize_boundaries () =
  let open Mgacc_util.Bytesize in
  check Alcotest.string "1023B" "1023B" (to_string 1023);
  check Alcotest.string "exactly 1KB" "1.0KB" (to_string 1024);
  check Alcotest.string "just under 1MB" "1024.0KB" (to_string (1024 * 1024 - 1));
  check Alcotest.string "zero" "0B" (to_string 0)

let test_spec_presets_sane () =
  let open Mgacc_gpusim.Spec in
  List.iter
    (fun g ->
      check Alcotest.bool "efficiencies in (0,1]" true
        (g.compute_efficiency > 0.0 && g.compute_efficiency <= 1.0
        && g.bandwidth_efficiency > 0.0 && g.bandwidth_efficiency <= 1.0
        && g.l2_hit_ratio >= 0.0 && g.l2_hit_ratio < 1.0);
      check Alcotest.bool "capacity positive" true (g.mem_capacity > 0))
    [ tesla_c2075; tesla_m2050 ];
  check Alcotest.int "i7 threads" 12 (cpu_total_threads core_i7_970);
  check Alcotest.int "xeon threads" 24 (cpu_total_threads dual_xeon_x5670)

let suite =
  [
    tc "builtins: full table" test_builtins_table;
    tc "loc: formatting and error payloads" test_loc_formatting;
    tc "pretty: every statement form round-trips" test_pretty_every_statement;
    tc "cuda: p2p copies and conceptual charges" test_cuda_p2p_and_charges;
    tc "view: snapshots are copies" test_view_snapshots;
    tc "openmp: thread counts clamp to hardware" test_openmp_thread_clamp;
    tc "runtime: update device on distributed arrays" test_update_device_distributed;
    tc "bytesize: boundaries" test_bytesize_boundaries;
    tc "spec: presets sane" test_spec_presets_sane;
  ]
