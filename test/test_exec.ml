(* Tests for the execution layer: views, frames, the host driver, and
   the closure-compiling kernel executor with its cost accounting. *)

open Mgacc_minic
module View = Mgacc_exec.View
module Frame = Mgacc_exec.Frame
module Host_interp = Mgacc_exec.Host_interp
module Kernel_compile = Mgacc_exec.Kernel_compile
module Loop_info = Mgacc_analysis.Loop_info
module Coalesce = Mgacc_analysis.Coalesce
module Cost = Mgacc_gpusim.Cost

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---------------- Views ---------------- *)

let test_view_float () =
  let data = [| 1.0; 2.0; 3.0 |] in
  let v = View.of_float_array ~name:"x" data in
  let bank = [| 0.0; 9.0; 5.0 |] in
  v.View.load_f 1 bank 0;
  check (Alcotest.float 1e-12) "load into the slot" 2.0 bank.(0);
  v.View.store_f 1 bank 1;
  check (Alcotest.float 1e-12) "aliases backing" 9.0 data.(1);
  v.View.reduce_f Ast.Rplus 0 bank 2;
  check (Alcotest.float 1e-12) "in-place reduce" 6.0 data.(0);
  (match v.View.load_f 3 bank 0 with
  | exception View.Bounds { index = 3; _ } -> ()
  | _ -> Alcotest.fail "bounds check");
  match v.View.get_i 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type check"

let test_view_int_and_redops () =
  let v = View.of_int_array ~name:"k" [| 10; 20 |] in
  v.View.reduce_i Ast.Rmax 0 15;
  check Alcotest.int "max reduce" 15 (v.View.get_i 0);
  check Alcotest.int "redop id" 0 (View.redop_identity_i Ast.Rplus);
  check (Alcotest.float 1e-12) "mul id" 1.0 (View.redop_identity_f Ast.Rmul);
  check (Alcotest.float 1e-12) "min apply" 2.0 (View.apply_redop_f Ast.Rmin 2.0 7.0)

(* ---------------- Host code semantics ---------------- *)

let run src = Host_interp.run_program (Parser.parse ~file:"t" src)

let test_interp_arith_and_control () =
  let env =
    run
      {|void main() {
          int fib1 = 1; int fib2 = 1; int i; int res[10];
          res[0] = 1; res[1] = 1;
          for (i = 2; i < 10; i++) { res[i] = res[i-1] + res[i-2]; }
          double x = 2.0;
          double y = x * 3 + 1;
          int parity = 0;
          while (1) { parity = parity + 1; if (parity >= 5) break; }
          res[0] = parity;
        }|}
  in
  let res = View.snapshot_i (Host_interp.find_array env "res") in
  check Alcotest.int "fib" 55 res.(9);
  check Alcotest.int "while+break" 5 res.(0)

let test_interp_functions () =
  let env =
    run
      {|int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
        void scale(double xs[], int n, double s) { int i; for (i = 0; i < n; i++) { xs[i] *= s; } }
        void main() {
          int out[1];
          out[0] = fact(6);
          double xs[3];
          xs[0] = 1.0; xs[1] = 2.0; xs[2] = 3.0;
          scale(xs, 3, 10.0);
        }|}
  in
  check Alcotest.int "recursion" 720 (View.snapshot_i (Host_interp.find_array env "out")).(0);
  let xs = View.snapshot_f (Host_interp.find_array env "xs") in
  check (Alcotest.float 1e-12) "array by reference" 30.0 xs.(2)

let test_interp_builtins_and_casts () =
  let env =
    run
      {|void main() {
          double r[5];
          r[0] = sqrt(16.0);
          r[1] = fmax(2.0, 3.0);
          r[2] = (double)(7 / 2);
          r[3] = (int)(3.9);
          r[4] = pow(2.0, 10.0);
        }|}
  in
  let r = View.snapshot_f (Host_interp.find_array env "r") in
  check (Alcotest.float 1e-12) "sqrt" 4.0 r.(0);
  check (Alcotest.float 1e-12) "fmax" 3.0 r.(1);
  check (Alcotest.float 1e-12) "int div" 3.0 r.(2);
  check (Alcotest.float 1e-12) "cast truncates" 3.0 r.(3);
  check (Alcotest.float 1e-9) "pow" 1024.0 r.(4)

let test_interp_sequential_parallel_loop () =
  (* Under the default hooks a parallel loop just runs in order. *)
  let env =
    run
      {|void main() {
          int n = 100; double a[n]; int i; double s = 0.0;
          #pragma acc parallel loop reduction(+: s)
          for (i = 0; i < n; i++) { a[i] = 1.0 * i; s += 1.0 * i; }
        }|}
  in
  (match Host_interp.get_scalar env "s" with
  | Host_interp.Vfloat s -> check (Alcotest.float 1e-9) "reduction result" 4950.0 s
  | _ -> Alcotest.fail "s kind");
  let a = View.snapshot_f (Host_interp.find_array env "a") in
  check (Alcotest.float 1e-12) "array written" 99.0 a.(99)

let test_interp_runtime_errors () =
  let fails src =
    match run src with
    | exception (Loc.Error _ | View.Bounds _) -> ()
    | _ -> Alcotest.failf "expected runtime error"
  in
  fails "void main() { int x = 1 / 0; }";
  fails "void main() { double a[3]; a[5] = 1.0; }";
  fails "void main() { double a[0 - 2]; }";
  fails "void f() { } void g() { }" (* no main *)

(* ---------------- Kernel compilation ---------------- *)

let compile_loop ?(params = []) src =
  let p = Parser.parse ~file:"t" src in
  Typecheck.check_program p;
  let loop = List.hd (Loop_info.extract (Option.get (Ast.find_func p "main"))) in
  let classify_site = Coalesce.make loop in
  Kernel_compile.compile ~loop
    ~params:(if params = [] then failwith "params required" else params)
    ~classify:(fun _ idx -> classify_site idx)

let saxpy_src =
  {|void main() { int n = 4; double x[n]; double y[n]; double a; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { y[i] = y[i] + a * x[i]; } }|}

let test_kernel_compile_runs () =
  let kc =
    compile_loop saxpy_src
      ~params:[ ("n", Ast.Tint); ("x", Ast.Tarray Ast.Edouble); ("y", Ast.Tarray Ast.Edouble); ("a", Ast.Tdouble) ]
  in
  let frame = kc.Kernel_compile.make_frame () in
  let x = [| 1.0; 2.0; 3.0; 4.0 |] and y = [| 10.0; 10.0; 10.0; 10.0 |] in
  List.iter
    (fun (name, slot, _) ->
      match name with
      | "n" -> Frame.set_int frame slot 4
      | "a" -> Frame.set_float frame slot 2.0
      | "x" -> Frame.set_view frame slot (View.of_float_array ~name:"x" x)
      | "y" -> Frame.set_view frame slot (View.of_float_array ~name:"y" y)
      | _ -> ())
    kc.Kernel_compile.params;
  for i = 0 to 3 do
    kc.Kernel_compile.run_iter frame i
  done;
  check (Alcotest.array (Alcotest.float 1e-12)) "saxpy" [| 12.0; 14.0; 16.0; 18.0 |] y;
  (* Cost accounting, in the frame's own counter: per iteration 2 flops
     (add, mul), coalesced traffic 2 reads + 1 write of 8 bytes. *)
  let c = frame.Frame.cost in
  check Alcotest.int "flops" 8 c.Cost.flops;
  check Alcotest.int "coalesced bytes" (4 * 3 * 8) c.Cost.coalesced_bytes;
  check Alcotest.int "no random" 0 c.Cost.random_accesses

let test_kernel_compile_gather_counts_random () =
  let src =
    {|void main() { int n = 4; double x[n]; double y[n]; int idx[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { y[i] = x[idx[i]]; } }|}
  in
  let kc =
    compile_loop src
      ~params:
        [ ("x", Ast.Tarray Ast.Edouble); ("y", Ast.Tarray Ast.Edouble); ("idx", Ast.Tarray Ast.Eint) ]
  in
  let frame = kc.Kernel_compile.make_frame () in
  List.iter
    (fun (name, slot, _) ->
      match name with
      | "x" -> Frame.set_view frame slot (View.of_float_array ~name:"x" [| 1.0; 2.0; 3.0; 4.0 |])
      | "y" -> Frame.set_view frame slot (View.of_float_array ~name:"y" (Array.make 4 0.0))
      | "idx" -> Frame.set_view frame slot (View.of_int_array ~name:"idx" [| 3; 2; 1; 0 |])
      | _ -> ())
    kc.Kernel_compile.params;
  for i = 0 to 3 do
    kc.Kernel_compile.run_iter frame i
  done;
  let c = frame.Frame.cost in
  check Alcotest.int "one gather per iteration" 4 c.Cost.random_accesses;
  check Alcotest.int "gather bytes" 32 c.Cost.random_bytes

let test_kernel_compile_rejects () =
  let reject params src =
    match compile_loop ~params src with
    | exception Loc.Error _ -> ()
    | _ -> Alcotest.fail "expected kernel compile error"
  in
  reject
    [ ("a", Ast.Tarray Ast.Edouble) ]
    {|void main() { int n = 4; double a[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { double t[3]; a[i] = 0.0; } }|};
  reject
    [ ("a", Ast.Tarray Ast.Edouble) ]
    {|void main() { int n = 4; double a[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { return; } }|}

let test_kernel_control_flow_and_ints () =
  (* while / break / continue / ternary / bit ops / int arrays, all inside
     a kernel body. *)
  let src =
    {|void main() { int n = 8; int out[n]; int v[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) {
  int acc = 0;
  int j = 0;
  while (1) {
    j = j + 1;
    if (j == 2) { continue; }
    acc = acc + j;
    if (j >= 5) { break; }
  }
  int masked = (v[i] & 3) | (i << 2);
  out[i] = (i % 2 == 0) ? acc + masked : acc - masked;
} }|}
  in
  let kc =
    compile_loop src
      ~params:[ ("out", Ast.Tarray Ast.Eint); ("v", Ast.Tarray Ast.Eint) ]
  in
  let frame = kc.Kernel_compile.make_frame () in
  let out = Array.make 8 0 and v = Array.init 8 (fun i -> (i * 5) + 1) in
  List.iter
    (fun (name, slot, _) ->
      match name with
      | "out" -> Frame.set_view frame slot (View.of_int_array ~name:"out" out)
      | "v" -> Frame.set_view frame slot (View.of_int_array ~name:"v" v)
      | _ -> ())
    kc.Kernel_compile.params;
  for i = 0 to 7 do
    kc.Kernel_compile.run_iter frame i
  done;
  (* acc = 1+3+4+5 = 13 (j=2 skipped). masked = (v[i] land 3) lor (i lsl 2). *)
  Array.iteri
    (fun i got ->
      let masked = (v.(i) land 3) lor (i lsl 2) in
      let expected = if i mod 2 = 0 then 13 + masked else 13 - masked in
      check Alcotest.int (Printf.sprintf "out[%d]" i) expected got)
    out

let test_kernel_frame_reuse_between_iterations () =
  (* Locals live in reused slots: every iteration must reinitialize its own
     declarations (no cross-iteration leakage through the declaration). *)
  let src =
    {|void main() { int n = 4; double a[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) { double t = 1.0; t = t + i; a[i] = t; } }|}
  in
  let kc = compile_loop src ~params:[ ("a", Ast.Tarray Ast.Edouble) ] in
  let frame = kc.Kernel_compile.make_frame () in
  let a = Array.make 4 0.0 in
  List.iter
    (fun (name, slot, _) ->
      if name = "a" then Frame.set_view frame slot (View.of_float_array ~name:"a" a))
    kc.Kernel_compile.params;
  for i = 0 to 3 do
    kc.Kernel_compile.run_iter frame i
  done;
  check (Alcotest.array (Alcotest.float 1e-12)) "per-iteration init" [| 1.0; 2.0; 3.0; 4.0 |] a

let test_extract_reduction_patterns () =
  let stmt src =
    let p = Parser.parse ~file:"t" (Printf.sprintf "void main() { double a[4]; double v; int k; %s }" src) in
    let f = Option.get (Ast.find_func p "main") in
    List.nth f.Ast.fbody 3
  in
  let ok op src =
    let idx, contrib = Kernel_compile.extract_reduction op (stmt src) in
    (Pretty.expr_to_string idx, Pretty.expr_to_string contrib)
  in
  check (Alcotest.pair Alcotest.string Alcotest.string) "+=" ("k", "v") (ok Ast.Rplus "a[k] += v;");
  check (Alcotest.pair Alcotest.string Alcotest.string) "a[k]=a[k]+v" ("k", "v")
    (ok Ast.Rplus "a[k] = a[k] + v;");
  check (Alcotest.pair Alcotest.string Alcotest.string) "commuted" ("k", "v")
    (ok Ast.Rplus "a[k] = v + a[k];");
  check (Alcotest.pair Alcotest.string Alcotest.string) "fmax" ("k", "v")
    (ok Ast.Rmax "a[k] = fmax(a[k], v);");
  (match ok Ast.Rplus "a[k] = a[k] * v;" with
  | exception Loc.Error _ -> ()
  | _ -> Alcotest.fail "op mismatch must fail");
  match ok Ast.Rplus "a[k] = a[k + 1] + v;" with
  | exception Loc.Error _ -> ()
  | _ -> Alcotest.fail "different subscript must fail"

(* ---------------- One semantics on the host and on the GPUs ---------------- *)

let run_both src =
  let program = Parser.parse ~file:"t" src in
  let seq = Mgacc.run_sequential program in
  let acc, _ = Mgacc.run_acc ~config:(Mgacc.Rt_config.make (Mgacc.Machine.desktop ())) program in
  (seq, acc)

let test_double_conditions () =
  (* 0.5 is true in C. Every condition form, inside a kernel and on the
     host, must agree. *)
  let seq, acc =
    run_both
      {|void main() {
          int n = 4; double a[n]; int r[n]; int i;
          for (i = 0; i < n; i++) { a[i] = 0.5; }
          #pragma acc parallel loop
          for (i = 0; i < n; i++) {
            int k = 0;
            if (a[i]) { k = k + 1; }
            k = k + 10 * (a[i] ? 1 : 0);
            k = k + 100 * (a[i] && a[i]);
            k = k + 1000 * (0.0 || a[i]);
            int w = 0;
            double d = 0.25;
            while (d) { w = w + 1; d = 0.0; }
            int f = 0;
            for (d = 0.5; d; d = 0.0) { f = f + 1; }
            r[i] = k + 10000 * w + 100000 * f;
          }
        }|}
  in
  let expected = Array.make 4 111111 in
  check (Alcotest.array Alcotest.int) "sequential" expected (Mgacc.int_results seq "r");
  check (Alcotest.array Alcotest.int) "acc" expected (Mgacc.int_results acc "r")

let test_int_compare_is_exact () =
  (* 2^53 + 1 and 2^53 are equal as doubles but not as ints. *)
  let seq, acc =
    run_both
      {|void main() {
          int n = 2; int r[n]; int h[1]; int i; int big = 9007199254740993;
          h[0] = (big == 9007199254740992);
          #pragma acc parallel loop
          for (i = 0; i < n; i++) { r[i] = (big == 9007199254740992) + 2 * (big > 9007199254740992); }
        }|}
  in
  check Alcotest.int "host" 0 (Mgacc.int_results seq "h").(0);
  check (Alcotest.array Alcotest.int) "sequential" [| 2; 2 |] (Mgacc.int_results seq "r");
  check (Alcotest.array Alcotest.int) "acc" [| 2; 2 |] (Mgacc.int_results acc "r")

let test_kernel_division_by_zero_is_located () =
  let located what stmt =
    let src =
      Printf.sprintf
        {|void main() {
            int n = 4; int r[n]; int z = 0; int i;
            #pragma acc parallel loop
            for (i = 0; i < n; i++) { %s }
          }|}
        stmt
    in
    let program = Parser.parse ~file:"t" src in
    let machine = Mgacc.Machine.desktop () in
    List.iter
      (fun (mode, run) ->
        match run () with
        | exception Loc.Error (loc, msg) ->
            check Alcotest.string (mode ^ " message") what msg;
            check Alcotest.int (mode ^ " line") 4 loc.Loc.line
        | _ -> Alcotest.failf "%s: %s did not raise" mode stmt)
      [
        ("sequential", fun () -> ignore (Mgacc.run_sequential program));
        ("acc", fun () -> ignore (Mgacc.run_acc ~config:(Mgacc.Rt_config.make machine) program));
      ]
  in
  located "integer division by zero" "r[i] = i / z;";
  located "integer modulo by zero" "r[i] = i % z;";
  located "integer division by zero" "r[i] = 1; r[i] /= z;"

(* ---------------- The environment hooks see ---------------- *)

let run_with_hooks ?(on_loop = Host_interp.run_loop_sequentially) ?(on_update = fun _ _ -> ())
    src =
  let hooks =
    {
      Host_interp.sequential_hooks with
      Host_interp.on_parallel_loop = on_loop;
      on_update_host = on_update;
    }
  in
  Host_interp.run_program ~hooks (Parser.parse ~file:"t" src)

let test_env_views_are_stable () =
  let seen = ref [] in
  let on_update env subs =
    List.iter
      (fun (sub : Ast.subarray) ->
        seen := (sub.Ast.sub_array, Host_interp.find_array env sub.Ast.sub_array) :: !seen)
      subs
  in
  ignore
    (run_with_hooks ~on_update
       {|void main() {
           double a[4]; int k;
           #pragma acc update host(a[0:4])
           ;
           a[0] = 1.0;
           #pragma acc update host(a[0:4])
           ;
           for (k = 0; k < 2; k++) {
             double b[3];
             #pragma acc update host(b[0:3])
             ;
           }
         }|});
  match List.rev !seen with
  | [ ("a", a1); ("a", a2); ("b", b1); ("b", b2) ] ->
      check Alcotest.bool "a: one view while live" true (a1 == a2);
      check Alcotest.bool "b: a new view per declaration" false (b1 == b2)
  | l -> Alcotest.failf "unexpected hook sequence (%d calls)" (List.length l)

let test_loop_ids_follow_first_execution () =
  let ids = ref [] in
  let on_loop env (loop : Loop_info.t) =
    ids := (loop.Loop_info.loop_loc.Loc.line, loop.Loop_info.loop_id) :: !ids;
    Host_interp.run_loop_sequentially env loop
  in
  let env =
    run_with_hooks ~on_loop
      {|void fill(double x[], int n) {
          int i;
          #pragma acc parallel loop
          for (i = 0; i < n; i++) { x[i] = x[i] + 1.0; }
        }
        void main() {
          int n = 4; double a[n]; int i; int k;
          for (k = 0; k < 2; k++) {
            if (k == 1) { fill(a, n); }
            else {
              #pragma acc parallel loop
              for (i = 0; i < n; i++) { a[i] = 2.0; }
            }
          }
          fill(a, n);
        }|}
  in
  (* fill's loop is defined first and compiled first (the then-branch),
     but main's loop runs first. *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "(line, id)" [ (12, 0); (4, 1); (4, 1) ] (List.rev !ids);
  check (Alcotest.float 0.0) "ran" 4.0 (View.snapshot_f (Host_interp.find_array env "a")).(3)

let test_env_scope_is_the_pragmas () =
  let seen = ref [] in
  let on_update env _ =
    seen :=
      ( Host_interp.find_array env "x",
        Host_interp.find_array_opt env "y",
        Host_interp.get_scalar env "m" )
      :: !seen
  in
  ignore
    (run_with_hooks ~on_update
       {|void main() {
           double x[4]; int m = 1;
           {
             #pragma acc update host(x[0:4])
             ;
             double x[8]; double y[2]; int m = 2;
             x[0] = 1.0; y[0] = 1.0; m = m + 1;
           }
         }|});
  match !seen with
  | [ (x, y, m) ] ->
      check Alcotest.int "outer x" 4 x.View.length;
      check Alcotest.bool "y not yet declared" true (y = None);
      check Alcotest.bool "outer m" true (m = Host_interp.Vint 1)
  | _ -> Alcotest.fail "expected one hook call"

let test_escaping_break_is_located () =
  match
    run
      {|void main() {
          int n = 4; double a[n]; int i;
          #pragma acc parallel loop
          for (i = 0; i < n; i++) { if (i == 2) { break; } a[i] = 1.0; }
        }|}
  with
  | exception Loc.Error (loc, msg) ->
      check Alcotest.string "message" "break/continue escaping a parallel loop iteration" msg;
      check Alcotest.int "line" 4 loc.Loc.line
  | _ -> Alcotest.fail "an escaping break must raise"

(* On the multi-GPU path too, each of these is a located error rather
   than an escaping exception: a jump out of a kernel iteration, an array
   too large to allocate, a plain store into a reduction destination, and
   one destination reduced with two operators. *)
let test_device_path_errors_are_located () =
  let expect what (line, message) src =
    let config = Mgacc.Rt_config.make ~num_gpus:2 (Mgacc.Machine.desktop ()) in
    match Mgacc.run_acc ~config (Mgacc.parse_string ~name:"t" src) with
    | exception Loc.Error (loc, msg) ->
        check Alcotest.int (what ^ ": line") line loc.Loc.line;
        check Alcotest.string what message msg
    | _ -> Alcotest.failf "%s: must raise a located error" what
  in
  expect "break" (4, "break/continue escaping a parallel loop iteration")
    {|void main() {
  int n = 8; int x[n]; int i;
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { x[i] = i; if (i == 3) { break; } }
}|};
  List.iter
    (fun n ->
      expect ("array of " ^ n) (3, "array x: length " ^ n ^ " is too large to allocate")
        (Printf.sprintf {|void main() {
  int n = %s;
  double x[n];
}|} n))
    [ "4611686018427387903"; "9007199254740992" ];
  expect "plain store" (7, "plain write to c, a reductiontoarray destination of this loop")
    {|void main() {
  int n = 8; double c[n]; int i;
  #pragma acc parallel loop
  for (i = 0; i < n; i++) {
    #pragma acc reductiontoarray(+: c)
    c[i % 4] += 1.0;
    c[3] = 5;
  }
}|};
  expect "two operators" (7, "reductiontoarray: c is reduced with both + and *")
    {|void main() {
  int n = 8; double c[n]; int i;
  #pragma acc parallel loop
  for (i = 0; i < n; i++) {
    #pragma acc reductiontoarray(+: c)
    c[i % 4] += 1.0;
    #pragma acc reductiontoarray(*: c)
    c[i % 4] *= 2.0;
  }
}|}

(* ---------------- Compiled host path against the reference ---------------- *)

(* Generated host programs: nested for/while/if over int and double
   scalars and arrays, int/double mixes in every operator and condition,
   break/continue, shadowing blocks, calls with array arguments (one
   recursive), early returns and a sequential parallel loop. Indices stay
   in range and int divisors are odd, so runs do not fail; a run that does
   must fail in both interpreters. *)
module Gen = QCheck2.Gen

let ( >>= ) = Gen.( >>= )

type scope = { ints : string list; dbls : string list; pure : bool; calls : bool }

let paren fmt = Printf.ksprintf (fun s -> "(" ^ s ^ ")") fmt

let rec gen_i sc depth : string Gen.t =
  let leaves =
    [
      (3, Gen.map (fun n -> if n < 0 then paren "%d" n else string_of_int n) (Gen.int_range (-9) 9));
      (1, Gen.oneofl [ "9007199254740993"; "9007199254740992" ]);
      (4, Gen.oneofl sc.ints);
    ]
  in
  if depth = 0 then Gen.frequency leaves
  else
    let i = gen_i sc (depth - 1) and d = gen_d sc (depth - 1) and any = gen_any sc (depth - 1) in
    let bin op x y = Gen.map2 (fun a b -> paren "%s %s %s" a op b) x y in
    Gen.frequency
      (leaves
      @ [
          (2, Gen.map (Printf.sprintf "a[%s]") (gen_idx sc (depth - 1)));
          (2, Gen.oneofl [ "+"; "-"; "*"; "&"; "^" ] >>= fun op -> bin op i i);
          (1, Gen.map2 (fun a b -> paren "%s / (%s | 1)" a b) i i);
          (1, Gen.map2 (fun a b -> paren "%s %% (%s | 1)" a b) i i);
          (2, Gen.oneofl [ "<"; "<="; "=="; "!="; ">" ] >>= fun op -> bin op any any);
          (1, Gen.oneofl [ "&&"; "||" ] >>= fun op -> bin op any any);
          (1, Gen.map (paren "!%s") any);
          (1, Gen.map (paren "(int)%s") d);
          (1, Gen.map2 (fun a b -> Printf.sprintf "min(%s, %s)" a b) i i);
          (1, Gen.map3 (paren "%s ? %s : %s") any i i);
        ]
      @
      if sc.calls then
        [
          (1, Gen.map (Printf.sprintf "h(a, d, %s)") i);
          (1, Gen.map (Printf.sprintf "fact(%s %% 6)") i);
        ]
      else [])

and gen_d sc depth : string Gen.t =
  let leaves =
    [
      (3, Gen.oneofl [ "0.5"; "1.25"; "0.0"; "3.0"; "0.1"; "(-2.5)" ]);
      (4, Gen.oneofl sc.dbls);
    ]
  in
  if depth = 0 then Gen.frequency leaves
  else
    let i = gen_i sc (depth - 1) and d = gen_d sc (depth - 1) and any = gen_any sc (depth - 1) in
    Gen.frequency
      (leaves
      @ [
          (2, Gen.map (Printf.sprintf "d[%s]") (gen_idx sc (depth - 1)));
          ( 3,
            Gen.map3 (fun a op b -> paren "%s %s %s" a op b) d (Gen.oneofl [ "+"; "-"; "*"; "/" ]) any );
          (1, Gen.map (paren "1.0 * %s") i);
          (1, Gen.map (Printf.sprintf "sqrt(fabs(%s))") d);
          (1, Gen.map (Printf.sprintf "floor(%s)") d);
          (1, Gen.map2 (Printf.sprintf "fmax(%s, %s)") d any);
          (* Mixed branches: the result is a double either way. *)
          (1, Gen.map3 (paren "%s ? %s : %s") any i d);
        ]
      @ if sc.calls then [ (1, Gen.map (Printf.sprintf "g(a, d, %s)") d) ] else [])

and gen_any sc depth = Gen.oneof [ gen_i sc depth; gen_d sc depth ]

(* Always in [0, 6). *)
and gen_idx sc depth = Gen.map (fun e -> paren "(%s %% 6) + 6" e ^ " % 6") (gen_i sc depth)


(* [level] is the loop nesting depth: loop counter i<level> is free. *)
let rec gen_stmt sc ~level ~in_loop ~ret depth : string Gen.t =
  let i = gen_i sc 2 and d = gen_d sc 2 and any = gen_any sc 2 in
  let simple =
    [
      (3, Gen.map2 (Printf.sprintf "%s = %s;") (Gen.oneofl [ "x0"; "x1" ]) any);
      (1, Gen.map2 (Printf.sprintf "%s += %s;") (Gen.oneofl [ "x0"; "x1" ]) i);
      (1, Gen.map (Printf.sprintf "x1 /= (%s | 1);") i);
      (3, Gen.map2 (Printf.sprintf "%s = %s;") (Gen.oneofl [ "y0"; "y1" ]) any);
      (1, Gen.map2 (Printf.sprintf "%s *= %s;") (Gen.oneofl [ "y0"; "y1" ]) d);
    ]
    @ (if sc.pure then []
       else
         [
           (2, Gen.map2 (Printf.sprintf "a[%s] = %s;") (gen_idx sc 1) any);
           (2, Gen.map2 (Printf.sprintf "d[%s] += %s;") (gen_idx sc 1) any);
         ])
    @ (if sc.calls && not sc.pure then [ (1, Gen.map (Printf.sprintf "upd(a, d, %s);") i) ] else [])
    @ (if in_loop then [ (1, Gen.oneofl [ "break;"; "continue;" ]) ] else [])
    @ match ret with Some r -> [ (1, Gen.map2 (Printf.sprintf "if (%s) { %s }") any r) ] | None -> []
  in
  if depth = 0 then Gen.frequency simple
  else
    let body ~sc ~level ~in_loop = gen_block sc ~level ~in_loop ~ret (depth - 1) in
    let counter = Printf.sprintf "i%d" level in
    let inner = { sc with ints = counter :: sc.ints } in
    Gen.frequency
      (simple
      @ [
          ( 2,
            Gen.map3 (Printf.sprintf "if (%s) { %s } else { %s }") any
              (body ~sc ~level ~in_loop) (body ~sc ~level ~in_loop) );
          ( 2,
            Gen.map2
              (fun n b -> Printf.sprintf "for (%s = 0; %s < %d; %s++) { %s }" counter counter n counter b)
              (Gen.int_range 0 3)
              (body ~sc:inner ~level:(level + 1) ~in_loop:true) );
          (* Bounded by a variable, stepping down, or writing the counter or
             the bound; each still ends within a few iterations. *)
          ( 2,
            Gen.map3
              (fun n form b ->
                let c = counter and j = Printf.sprintf "j%d" level in
                match form with
                | 0 -> Printf.sprintf "{ int %s = %d; for (%s = 0; %s < %s; %s++) { %s } }" j n c c j c b
                | 1 -> Printf.sprintf "for (%s = %d; %s >= 0; %s--) { %s }" c n c c b
                | 2 -> Printf.sprintf "for (%s = 0; %s <= %d; %s++) { %s %s = %s + 1; }" c c n c b c c
                | _ ->
                    Printf.sprintf "{ int %s = %d; for (%s = 0; %s < %s; %s++) { %s = %s - 1; %s } }" j n c
                      c j c j j b)
              (Gen.int_range 0 3) (Gen.int_range 0 3)
              (body ~sc:inner ~level:(level + 1) ~in_loop:true) );
          ( 1,
            Gen.map3
              (fun n c b ->
                Printf.sprintf "%s = 0; while (%s < %d && %s) { %s++; %s }" counter counter n c counter b)
              (Gen.int_range 0 3) any
              (body ~sc:inner ~level:(level + 1) ~in_loop:true) );
          ( 1,
            Gen.map3
              (fun x y b -> Printf.sprintf "{ int x1 = %s; double y0 = %s; %s }" x y b)
              i d (body ~sc ~level ~in_loop) );
        ])

and gen_block sc ~level ~in_loop ~ret depth =
  Gen.map (String.concat " ") (Gen.list_size (Gen.int_range 1 3) (gen_stmt sc ~level ~in_loop ~ret depth))

let locals = "int i0; int i1; int i2;"
let main_scope = { ints = [ "x0"; "x1"; "n" ]; dbls = [ "y0"; "y1" ]; pure = false; calls = true }

let gen_host_program =
  let fn_scope ~pure = { main_scope with ints = [ "x0"; "x1"; "k" ]; pure; calls = false } in
  let fn_body sc ~ret = gen_block sc ~level:0 ~in_loop:false ~ret 2 in
  let pure = fn_scope ~pure:true in
  let h_ret = Gen.map (Printf.sprintf "return %s;") (gen_i pure 2) in
  let g_ret = Gen.map (Printf.sprintf "return %s;") (gen_d pure 2) in
  Gen.map
    (fun ((h, hr, g), (gr, u, (par, m))) ->
      Printf.sprintf
        {|int fact(int k) { if (k <= 1) { return 1; } return k * fact(k - 1); }
int h(int a[], double d[], int k) { int x0 = k; int x1 = 3; double y0 = 0.5; double y1 = (-1.5); %s %s %s }
double g(int a[], double d[], double s) { int k = 2; int x0 = k; int x1 = (-4); double y0 = s; double y1 = 0.25; %s %s %s }
void upd(int a[], double d[], int k) { int x0 = k; int x1 = 1; double y0 = 1.5; double y1 = 2.0; %s %s }
void main() {
  int n = 6; int a[n]; double d[n]; int x0 = 1; int x1 = (-3); double y0 = 0.5; double y1 = 2.25; %s int p;
  for (p = 0; p < n; p++) { a[p] = p * 3 - 7; d[p] = 0.5 * p - 1.0; }
  #pragma acc parallel loop
  for (p = 0; p < n; p++) { %s }
  %s
}
|}
        locals h hr locals g gr locals u locals par m)
    (Gen.pair
       (Gen.triple (fn_body pure ~ret:(Some h_ret)) h_ret (fn_body pure ~ret:(Some g_ret)))
       (Gen.triple g_ret
          (fn_body (fn_scope ~pure:false) ~ret:(Some (Gen.return "return;")))
          (Gen.pair
             (Gen.map2 (Printf.sprintf "a[p] = a[p] + %s; d[p] = %s;")
                (gen_i { main_scope with ints = "p" :: main_scope.ints } 2)
                (gen_d main_scope 2))
             (gen_block main_scope ~level:0 ~in_loop:false ~ret:None 3))))

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) || (a <> a && b <> b)

let prop_compiled_matches_reference =
  let prop src =
    let program = Parser.parse ~file:"gen.c" src in
    match (Host_interp.run_program program, Ref_interp.run program) with
    | exception (Loc.Error _ | View.Bounds _) -> (
        match Ref_interp.run program with
        | exception (Loc.Error _ | View.Bounds _) -> true
        | _ -> QCheck2.Test.fail_reportf "only the compiled path failed@.%s" src)
    | env, r ->
        let ints name = View.snapshot_i (Host_interp.find_array env name) in
        let floats name = View.snapshot_f (Host_interp.find_array env name) in
        let scalar name =
          match (Host_interp.get_scalar env name, Ref_interp.get_scalar r name) with
          | Host_interp.Vint a, Ref_interp.Vint b -> a = b
          | Host_interp.Vfloat a, Ref_interp.Vfloat b -> same_float a b
          | _ -> false
        in
        let ok =
          ints "a" = View.snapshot_i (Ref_interp.find_array r "a")
          && Array.for_all2 same_float (floats "d") (View.snapshot_f (Ref_interp.find_array r "d"))
          && List.for_all scalar [ "x0"; "x1"; "y0"; "y1" ]
        in
        if not ok then QCheck2.Test.fail_reportf "compiled and reference differ@.%s" src;
        true
    | exception e -> (
        match Ref_interp.run program with
        | exception _ -> true
        | _ -> QCheck2.Test.fail_reportf "compiled raised %s@.%s" (Printexc.to_string e) src)
  in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 20131001 |])
    (QCheck2.Test.make ~count:300 ~long_factor:10
       ~name:"compiled host code matches the reference interpreter"
       ~print:Fun.id gen_host_program prop)

(* ---------------- Compiled kernels against the reference, counts included ---------------- *)

(* Every access site gets one of the three traffic classes, by where its
   subscript is, so the compiler and the oracle agree site by site. *)
let cycling_classify _ (idx : Ast.expr) =
  match ((idx.Ast.eloc.Loc.line * 7) + idx.Ast.eloc.Loc.col) mod 3 with
  | 0 -> Coalesce.Coalesced
  | 1 -> Coalesce.Broadcast
  | _ -> Coalesce.Random

let kernel_n = 6
let init_a () = Array.init kernel_n (fun p -> (p * 3) - 7)
let init_d () = Array.init kernel_n (fun p -> (0.5 *. float_of_int p) -. 1.0)

(* A kernel over int a[6], double d[6] and the loop-uniform scalars n, m
   and s; [body] is its loop body. *)
let kernel_source body =
  Printf.sprintf
    "void main() { int n = %d; int m = 4; double s = 1.5; int a[n]; double d[n]; int p;\n\
     #pragma acc parallel loop\n\
     for (p = 0; p < n; p++) { %s }\n\
     }"
    kernel_n body

let cost_fields (c : Cost.t) =
  [
    ("flops", c.Cost.flops);
    ("int_ops", c.Cost.int_ops);
    ("coalesced_bytes", c.Cost.coalesced_bytes);
    ("broadcast_bytes", c.Cost.broadcast_bytes);
    ("random_accesses", c.Cost.random_accesses);
    ("random_bytes", c.Cost.random_bytes);
  ]

(* Compile [body] as a kernel, run every iteration in one frame, and run
   the reference on its own copy of the inputs. [Ok ()] when both agree on
   the arrays and on every cost field, or both fail. *)
let kernel_vs_reference ?(same_error = false) body =
  let program = Parser.parse ~file:"k.c" (kernel_source body) in
  Typecheck.check_program program;
  let loop = List.hd (Loop_info.extract (Option.get (Ast.find_func program "main"))) in
  let ty = function
    | "a" -> Ast.Tarray Ast.Eint
    | "d" -> Ast.Tarray Ast.Edouble
    | "s" -> Ast.Tdouble
    | _ -> Ast.Tint
  in
  let scalar = function "n" -> kernel_n | "m" -> 4 | _ -> 0 in
  let params = List.map (fun v -> (v, ty v)) (Loop_info.free_vars loop) in
  let a = init_a () and d = init_d () in
  let compiled =
    match Kernel_compile.compile ~loop ~params ~classify:cycling_classify with
    | exception e -> Error e
    | kc -> (
        let frame = kc.Kernel_compile.make_frame () in
        List.iter
          (fun (name, slot, _) ->
            match name with
            | "a" -> Frame.set_view frame slot (View.of_int_array ~name a)
            | "d" -> Frame.set_view frame slot (View.of_float_array ~name d)
            | "s" -> Frame.set_float frame slot 1.5
            | _ -> Frame.set_int frame slot (scalar name))
          kc.Kernel_compile.params;
        match
          for i = 0 to kernel_n - 1 do
            kc.Kernel_compile.run_iter frame i
          done
        with
        | () -> Ok frame.Frame.cost
        | exception e -> Error e)
  in
  let ra = init_a () and rd = init_d () in
  let bindings =
    List.map
      (fun (name, t) ->
        ( name,
          match t with
          | Ast.Tarray Ast.Eint -> Ref_interp.Carray (View.of_int_array ~name ra)
          | Ast.Tarray _ -> Ref_interp.Carray (View.of_float_array ~name rd)
          | Ast.Tdouble -> Ref_interp.Cfloat (ref 1.5)
          | _ -> Ref_interp.Cint (ref (scalar name)) ))
      params
  in
  let reference =
    match Ref_interp.run_kernel program ~classify:cycling_classify loop bindings ~lo:0 ~hi:kernel_n with
    | c -> Ok c
    | exception e -> Error e
  in
  match (compiled, reference) with
  | Error c, Error r when same_error && Printexc.to_string c <> Printexc.to_string r ->
      Error (Printf.sprintf "the compiled kernel raised %s, the reference %s" (Printexc.to_string c) (Printexc.to_string r))
  | Error _, Error _ -> Ok ()
  | Error e, Ok _ -> Error (Printf.sprintf "only the compiled kernel raised %s" (Printexc.to_string e))
  | Ok _, Error e -> Error (Printf.sprintf "only the reference raised %s" (Printexc.to_string e))
  | Ok c, Ok r ->
      let counts =
        List.filter_map
          (fun ((f, x), (_, y)) -> if x = y then None else Some (Printf.sprintf "%s %d vs %d" f x y))
          (List.combine (cost_fields c) (cost_fields r))
      in
      if a <> ra then Error "int array differs"
      else if not (Array.for_all2 same_float d rd) then Error "double array differs"
      else if counts <> [] then Error ("counts differ: " ^ String.concat ", " counts)
      else Ok ()

let check_kernel ?same_error body =
  match kernel_vs_reference ?same_error body with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s@.kernel body: %s" msg body
  | exception e -> Alcotest.failf "%s@.kernel body: %s" (Printexc.to_string e) body

(* Operand shapes: a slot (variable or literal) or compound code, for
   both types. The compound int operand is never zero, so it can divide. *)
let int_shapes = [ "x0"; "3"; "((a[p] & 7) + 1)" ]
let dbl_shapes = [ "y0"; "1.5"; "(y1 * d[p])" ]
(* The affine shapes [a*b + c], [a*b - c] and [c + a*b], over variables
   and literals, stay in range too. *)
let index_shapes = [ "p"; "2"; "((x0 + p) % 6)"; "i0 * m + p"; "p * 2 - p"; "m + i0 * p"; "2 * 2 + 1" ]
let kernel_locals = "int x0 = 7; int x1 = 5; double y0 = 0.75; double y1 = (-1.25); int i0;"

(* The subscripts of a load by shape: slots, the three affine forms, and
   code. A fused operator reads the first four in its own closure. *)
let load_index_shapes = [ "p"; "i0 * m + p"; "p * 2 - p"; "m + i0 * p"; "((x0 + p) % 6)" ]

(* The operands of the fused shapes: slots, literals and loads. *)
let fused_operands = [ "y0"; "1.5"; "x0"; "d[p]"; "d[i0 * m + p]"; "d[(x0 + p) % 6]" ]

(* Fused operators: two loads under each float operator, load and slot
   mixes on both sides, [x op y*z] and [y*z op x], an operator over a slot
   and another operator, and kmeans's reduction update; literal-only int
   arithmetic, which folds, in value, condition and subscript context. *)
let fused_matrix =
  let ops = [ "+"; "-"; "*"; "/" ] in
  let pairs xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs in
  let loads = List.map (Printf.sprintf "d[%s]") load_index_shapes in
  let each ps f = List.concat_map (fun op -> List.map (fun (l, r) -> f op l r) ps) ops in
  List.concat
    [
      each (pairs loads loads) (fun op l r -> Printf.sprintf "y1 = %s %s %s;" l op r);
      each (pairs loads loads) (fun op l r -> Printf.sprintf "y1 = 0.5 * (%s %s %s);" l op r);
      each (pairs loads loads) (fun op l r -> Printf.sprintf "y1 = y1 - (%s %s %s);" l op r);
      each (pairs loads [ "y0"; "1.5"; "x0" ] @ pairs [ "y0"; "1.5"; "x0" ] loads) (fun op l r ->
          Printf.sprintf "y1 = %s %s %s;" l op r);
      List.concat_map
        (fun (x, (y, z)) ->
          List.concat_map
            (fun (op, inner) ->
              [
                Printf.sprintf "y1 = %s %s %s %s %s;" x op y inner z;
                Printf.sprintf "y1 = %s %s %s %s %s;" y inner z op x;
              ])
            [ ("+", "*"); ("-", "*"); ("+", "/"); ("-", "/") ])
        (pairs fused_operands (pairs fused_operands fused_operands));
      List.concat_map
        (fun op -> List.map (fun inner -> Printf.sprintf "y1 = y0 %s (y1 %s 1.5);" op inner) ops)
        ops;
      List.concat_map
        (fun (dst, src) ->
          [
            Printf.sprintf "\n#pragma acc reductiontoarray(+: d)\nd[%s] = d[%s] + d[%s];" dst dst src;
            Printf.sprintf "\n#pragma acc reductiontoarray(+: d)\nd[%s] += d[%s];" dst src;
            Printf.sprintf "\n#pragma acc reductiontoarray(*: d)\nd[%s] *= d[%s];" dst src;
          ])
        (pairs index_shapes load_index_shapes);
      [
        "double dist = 0.0; for (i0 = 0; i0 < m; i0++) { double e = d[p * 1 + 0] - \
         d[i0 * 1 + 1]; dist = dist + e * e; } y1 = dist;";
        "x1 = 0 - 1;";
        "x1 = 2 * 3 + x0;";
        "x1 = x0 - (4 - 9);";
        "y1 = 5 - 7;";
        "a[p] = 3 * 2;";
        "if (a[p] == 0 - 1) { x1 = 1; } else { x1 = 2; }";
        "if (a[p] < 0 - 1 && x0 > 2 * 3) { x1 = 1; }";
        "x1 = a[1 + 1] + a[2 * 2 + 1];";
        "d[0 * 0 + 1] = d[6 - 5];";
        "for (i0 = 0; i0 < 2 + 1; i0++) { y1 = y1 + d[i0]; }";
        "x1 = p > 2 ? 0 - 1 : 1 - 0;";
        "x1 = 7 / 0;";
        "x1 = 7 % 0;";
      ];
    ]
  |> List.map (fun stmt -> kernel_locals ^ " " ^ stmt)

(* Both loads of a fused operator fault (x0 is 7 and m is 4, past d's
   6 elements): the right operand's fault is the one raised, as in the
   reference. *)
let fused_faults =
  let bad = [ "d[x0]"; "d[x0 * 2 + p]"; "d[m + x0 * 3]"; "d[x0 * x0 - p]" ] in
  List.concat_map
    (fun l ->
      Printf.sprintf "\n#pragma acc reductiontoarray(+: d)\nd[x0 * 3 + p] += %s;" l
      :: List.concat_map
           (fun r ->
             if l = r then []
             else
               [
                 Printf.sprintf "y1 = %s - %s;" l r;
                 Printf.sprintf "y1 = y0 + %s * %s;" l r;
                 Printf.sprintf "y1 = 0.5 * (%s / %s);" l r;
               ])
           bad)
    bad
  |> List.map (fun stmt -> kernel_locals ^ " " ^ stmt)

let shape_matrix =
  let pairs xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs in
  let ii = pairs int_shapes int_shapes and dd = pairs dbl_shapes dbl_shapes in
  let mixed = pairs int_shapes dbl_shapes @ pairs dbl_shapes int_shapes in
  let cmps = [ "<"; "<="; ">"; ">="; "=="; "!=" ] in
  let each ops ps f = List.concat_map (fun op -> List.map (fun (l, r) -> f op l r) ps) ops in
  let infix fmt op l r = Printf.sprintf fmt l op r in
  List.concat
    [
      (* Binary operators in value context, straight into a variable and
         as an operand of another operator. *)
      each [ "+"; "-"; "*"; "/"; "%"; "&"; "|"; "^"; "<<"; ">>" ] ii (infix "x1 = %s %s %s;");
      each [ "+"; "-"; "*"; "/" ] ii (infix "x1 = (%s %s %s) + x1;");
      each [ "+"; "-"; "*"; "/" ] (dd @ mixed) (infix "y1 = %s %s %s;");
      each [ "+"; "-"; "*"; "/" ] (dd @ mixed) (infix "y1 = 0.5 * (%s %s %s);");
      (* Comparisons and logical operators in value and condition context. *)
      each cmps (ii @ dd @ mixed) (infix "x1 = %s %s %s;");
      each cmps (ii @ dd @ mixed) (infix "if (%s %s %s) { x1 = x1 + 1; }");
      each [ "&&"; "||" ] (ii @ dd @ mixed) (infix "x1 = %s %s %s;");
      each [ "&&"; "||" ] (ii @ dd @ mixed) (infix "if (%s %s %s) { x1 = 2; } else { x1 = 3; }");
      List.concat_map
        (fun l ->
          [
            Printf.sprintf "x1 = !%s;" l;
            Printf.sprintf "if (!%s) { x1 = 4; }" l;
            Printf.sprintf "if (%s) { x1 = 4; }" l;
            Printf.sprintf "while (%s) { x1 = 4; break; }" l;
            Printf.sprintf "x1 = %s ? x0 : 1;" l;
            Printf.sprintf "y1 = %s ? y0 : 1;" l;
          ])
        (int_shapes @ dbl_shapes);
      (* Unary operators, casts and conversions. *)
      List.concat_map
        (fun l -> [ Printf.sprintf "x1 = -%s;" l; Printf.sprintf "x1 = ~%s;" l; Printf.sprintf "y1 = %s;" l ])
        int_shapes;
      List.concat_map
        (fun l ->
          [
            Printf.sprintf "y1 = -%s;" l;
            Printf.sprintf "x1 = (int)%s;" l;
            Printf.sprintf "x1 = %s;" l;
            Printf.sprintf "y1 = (double)%s;" l;
          ])
        dbl_shapes;
      (* Builtins, resolved when they compile. *)
      List.concat_map
        (fun l ->
          List.map
            (fun f -> Printf.sprintf "y1 = %s(%s);" f l)
            [ "sqrt"; "fabs"; "exp"; "log"; "sin"; "cos"; "floor"; "ceil" ])
        (dbl_shapes @ [ "x0" ]);
      each [ "pow"; "fmin"; "fmax" ] (dd @ mixed) (Printf.sprintf "y1 = %s(%s, %s);");
      List.map (Printf.sprintf "x1 = abs(%s);") int_shapes;
      each [ "min"; "max" ] ii (Printf.sprintf "x1 = %s(%s, %s);");
      (* Assignments and declarations. *)
      each [ "="; "+="; "-="; "*="; "/=" ] (List.map (fun r -> ("x1", r)) int_shapes) (fun op l r ->
          Printf.sprintf "%s %s %s;" l op r);
      each [ "="; "+="; "-="; "*="; "/=" ] (List.map (fun r -> ("y1", r)) (dbl_shapes @ int_shapes))
        (fun op l r -> Printf.sprintf "%s %s %s;" l op r);
      [ "x1++;"; "x1--;"; "y1++;"; "y1--;"; "a[p]++;"; "d[p]--;"; "x1 = __length(d);" ];
      List.map (Printf.sprintf "int q = %s; x1 = q;") int_shapes;
      List.map (Printf.sprintf "double q = %s; y1 = q;") (dbl_shapes @ int_shapes);
      List.map (Printf.sprintf "double q; q = %s + q; y1 = q;") dbl_shapes;
      (* Array loads and stores, plain and compound, by subscript shape. *)
      List.concat_map
        (fun ix -> [ Printf.sprintf "x1 = a[%s];" ix; Printf.sprintf "y1 = d[%s];" ix; Printf.sprintf "y1 = y1 + d[%s];" ix ])
        index_shapes;
      each [ "="; "+="; "-="; "*="; "/=" ] (pairs index_shapes int_shapes) (fun op ix r ->
          Printf.sprintf "a[%s] %s %s;" ix op r);
      each [ "="; "+="; "-="; "*="; "/=" ] (pairs index_shapes (dbl_shapes @ int_shapes))
        (fun op ix r -> Printf.sprintf "d[%s] %s %s;" ix op r);
      (* Reduction updates, by subscript and contribution shape. *)
      each [ "+="; "*=" ] (pairs index_shapes (dbl_shapes @ int_shapes)) (fun op ix r ->
          Printf.sprintf "\n#pragma acc reductiontoarray(%s: d)\nd[%s] %s %s;" (String.sub op 0 1) ix op r);
      each [ "+="; "*=" ] (pairs index_shapes int_shapes) (fun op ix r ->
          Printf.sprintf "\n#pragma acc reductiontoarray(%s: a)\na[%s] %s %s;" (String.sub op 0 1) ix op r);
      (* Loop-uniform parameters, control flow and statement sequences. *)
      [
        "x1 = m + n; y1 = s * y0;";
        "for (i0 = 0; i0 < m; i0++) { y1 = y1 + d[i0]; }";
        "for (i0 = 0; ; i0++) { if (i0 >= 3) { break; } }";
        "while (x0 > 0) { x0 = x0 - 2; if (x0 == 3) { continue; } y1 = y1 + 1.0; }";
        "x1 = 1; x0 = 2; a[p] = x1 + x0; d[p] = y0; y1 = 2.0;";
        "{ int x0 = 1; a[p] = x0; }";
        "y0 + y1; x0 + 1;";
        "\n#pragma acc parallel loop\nfor (i0 = 0; i0 < 2; i0++) { d[p] = d[p] + i0; }";
        (* Counted loops: a literal or variable bound, every comparison,
           both steps, a body that writes the counter or the bound, and
           jumps that end a nested loop rather than the counted one. *)
        "for (i0 = 0; i0 < 3; i0++) { d[i0 * 2 + 1] = d[i0 * 2 - i0] * y0; a[m + i0 * 0] += i0; }";
        "for (x1 = 0; x1 < 2; x1++) { for (i0 = 0; i0 < 3; i0++) { y1 = y1 + d[x1 * 3 + i0] * \
         d[i0 * 1 - 0]; } }";
        "for (i0 = 5; i0 >= 0; i0--) { a[i0] = a[i0 * 1 + 0] + i0; }";
        "for (i0 = 6; i0 > p; i0--) { y1 = y1 + d[i0 - 1]; }";
        "for (i0 = 0; i0 <= x1; i0++) { x1 = x1 - 1; y1 = y1 + 1.0; }";
        "for (i0 = 0; i0 != 6; i0++) { i0 = i0 + 1; a[i0] = i0 * 2 + x0; }";
        "for (i0 = 1; i0 == 1; i0++) { x1 = x1 + 1; }";
        "for (i0 = 0; i0 < 3; i0++) { for (x1 = 0; x1 < 4; x1++) { if (x1 == i0) { break; } \
         y1 = y1 + 1.0; } }";
        "for (i0 = 0; i0 < 3; i0++) { while (x0 > i0) { x0 = x0 - 1; if (x0 == 4) { continue; } \
         y1 = y1 + 0.5; } }";
        "for (i0 = 0; i0 < 2; i0++) {\n#pragma acc reductiontoarray(+: d)\nd[i0 * 3 + p % 3] += y0 * i0;\n\
         #pragma acc reductiontoarray(+: a)\na[i0 * 2 - 0] += x1; }";
        "for (i0 = 0; i0 < m; i0++) { if (i0 == 2) { continue; } y1 = y1 + d[i0]; }";
        (* Segment boundaries: counted loops paying once for every trip
           (a body that moves its counter or bound, none, nested three
           deep), jumps mid-block with charged statements after them, and
           right sides and branches that load. *)
        "for (i0 = 0; i0 < x1; i0++) { x1 = x1 - 1; y1 = y1 + d[i0] * 2.0; a[i0] += 1; }";
        "for (i0 = 0; i0 < 6; i0++) { a[i0] += 2; i0 = i0 + 1; y1 = y1 - d[i0 % 6]; }";
        "for (i0 = 0; i0 < 0; i0++) { y1 = y1 + d[i0]; } y1 = y1 * 2.0;";
        "for (x1 = 5; x1 < 2; x1++) { y1 = y1 + d[x1]; a[p] += x1; }";
        "for (i0 = 0; i0 < 2; i0++) { for (x1 = 0; x1 < 3; x1++) { for (x0 = 0; x0 < 2; x0++) { y1 = \
         y1 + d[i0 * 3 + x1] * x0; } a[x1] += i0; } y0 = y0 * 1.5; }";
        "while (x0 > 0) { x0 = x0 - 1; y1 = y1 + d[x0 % 6]; if (x0 == 3) { break; } y1 = y1 * 2.0; \
         a[p] += x0; }";
        "while (x0 > 0) { x0 = x0 - 1; if (x0 % 2 == 0) { continue; } y1 = y1 + d[x0 % 6] * 0.5; a[p] \
         = a[p] + 1; }";
        "for (i0 = 0; i0 < 10; i0 = i0 + 2) { y1 = y1 + d[i0 % 6]; if (i0 == 4) { break; } y1 = y1 - \
         0.25; a[i0 % 6] += 1; }";
        "for (i0 = 0; i0 < 8; i0 = i0 + 1) { if (i0 % 3 == 1) { continue; } d[i0 % 6] = d[i0 % 6] + \
         y0; y1 = y1 + 1.0; }";
        "for (i0 = 0; i0 < 6; i0++) { y1 = y1 + d[i0]; if (y1 > 0.0) { break; } x1 = x1 + a[i0]; }";
        "if (x0 > 3 && d[p] > 0.0) { y1 = 1.0; }";
        "if (p < 2 || a[p] > 0) { x1 = 1; }";
        "x1 = (p > 2) && (d[p * 1 + 0] < 0.5);";
        "x1 = (p < 2) || (a[(p + 1) % 6] > 0);";
        "y1 = p > 2 ? d[p] * 2.0 : d[0] + y0;";
        "x1 = p % 2 == 0 ? a[p] + 1 : a[5 - p] * 2;";
        "y1 = (p > 1 && d[p] > (-0.5)) ? d[p] : y0 - d[1];";
      ];
    ]
  |> List.map (fun stmt -> kernel_locals ^ " " ^ stmt)

let test_kernel_shape_matrix () = List.iter check_kernel shape_matrix

let test_kernel_fused_matrix () =
  List.iter check_kernel fused_matrix;
  List.iter (check_kernel ~same_error:true) fused_faults

module Kgen = struct
  let scope = { ints = [ "x0"; "x1"; "n"; "m"; "p" ]; dbls = [ "y0"; "y1"; "s" ]; pure = false; calls = false }

  let reduction =
    Gen.oneof
      [
        Gen.map2 (Printf.sprintf "\n#pragma acc reductiontoarray(+: d)\nd[%s] += %s;") (gen_idx scope 1)
          (gen_any scope 2);
        Gen.map2 (Printf.sprintf "\n#pragma acc reductiontoarray(+: a)\na[%s] += %s;") (gen_idx scope 1)
          (gen_i scope 2);
      ]

  let body =
    Gen.map2
      (fun b rs -> Printf.sprintf "%s %s %s" (kernel_locals ^ " int i1; int i2;") b (String.concat " " rs))
      (gen_block scope ~level:0 ~in_loop:false ~ret:None 3)
      (Gen.list_size (Gen.int_range 0 2) reduction)
end

let prop_kernel_matches_reference =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 20131002 |])
    (QCheck2.Test.make ~count:300 ~long_factor:10
       ~name:"compiled kernels match the reference, cost counts included" ~print:Fun.id Kgen.body
       (fun body ->
         match kernel_vs_reference body with
         | Ok () -> true
         | Error msg -> QCheck2.Test.fail_reportf "%s@.%s" msg body))

(* ---------------- The in-place read path ---------------- *)

module Darray = Mgacc_runtime.Darray
module Launch = Mgacc_runtime.Launch
module Task_map = Mgacc_runtime.Task_map
module Rt_config = Mgacc_runtime.Rt_config

(* A double array of [n] elements whose replicas and parts hold [g * 1000 +
   i + 0.5] at [i] on GPU [g] (ints: the same without the half), so a
   read from the wrong replica or offset shows. *)
let device_array cfg ~ints ~name n =
  let host =
    if ints then View.of_int_array ~name (Array.init n (fun i -> -i))
    else View.of_float_array ~name (Array.init n (fun i -> -.float_of_int i))
  in
  Darray.create cfg ~name ~host

let fill_device (da : Darray.t) =
  let fill g buf ~lo =
    let module Memory = Mgacc_gpusim.Memory in
    match da.Darray.elem with
    | Ast.Edouble ->
        let d = Memory.float_data buf in
        Array.iteri (fun k _ -> d.(k) <- float_of_int ((g * 1000) + lo + k) +. 0.5) d
    | Ast.Eint ->
        let d = Memory.int_data buf in
        Array.iteri (fun k _ -> d.(k) <- (g * 1000) + lo + k) d
  in
  match da.Darray.state with
  | Darray.Replicated r -> Array.iteri (fun g buf -> fill g buf ~lo:0) r.Darray.bufs
  | Darray.Distributed d ->
      Array.iteri (fun g (p : Darray.part) -> fill g p.Darray.buf ~lo:p.Darray.window.Mgacc_util.Interval.lo)
        d.Darray.parts
  | Darray.Unallocated -> ()

(* The loads of compiled kernels, each reading [v[p]] on iteration [p]
   into the scalar parameter [t] or [x], or into [z[0]] by a reduction:
   plain, with an affine subscript, fused with a second load under one
   operator, inside a nested operator, and as a reduction's contribution
   ([u] is 0.0 and [z] holds 0.0 and 1.0, so each body's value is
   [v[p]]'s). *)
let load_kernels ~ints =
  let src body =
    Printf.sprintf
      "void main() { int n = 4; double v[n]; int w[n]; double z[2]; double t; double u; int x; int p;\n\
       #pragma acc parallel loop\n\
       for (p = 0; p < n; p++) { %s } }"
      body
  in
  let params =
    [
      ("v", Ast.Tarray Ast.Edouble);
      ("w", Ast.Tarray Ast.Eint);
      ("z", Ast.Tarray Ast.Edouble);
      ("t", Ast.Tdouble);
      ("u", Ast.Tdouble);
      ("x", Ast.Tint);
    ]
  in
  let bodies =
    if ints then [ "x = w[p];"; "x = w[p * 1 + 0];" ]
    else
      [
        "t = v[p];";
        "t = v[p * 1 + 0] * 1.0;";
        "t = v[p] + z[0];";
        "t = u + v[p] * z[1];";
        "\n#pragma acc reductiontoarray(+: z)\nz[p * 0 + 0] += v[p];";
      ]
  in
  List.map (fun body -> (body, compile_loop (src body) ~params)) bodies

let load_kernels_f = lazy (load_kernels ~ints:false)
let load_kernels_i = lazy (load_kernels ~ints:true)

(* Every index in [-2, length + 2): each compiled load returns what the
   accessor returns, or raises the same exception with the same fields. *)
let read_disagreement (v : View.t) =
  let outcome f = match f () with x -> Ok x | exception e -> Error e in
  let show = function Ok x -> x | Error e -> "raises " ^ Printexc.to_string e in
  let kernels, accessor =
    match v.View.elem with
    | Ast.Edouble ->
        ( Lazy.force load_kernels_f,
          fun i ->
            let bank = [| 0.0 |] in
            v.View.load_f i bank 0;
            Printf.sprintf "%h" bank.(0) )
    | Ast.Eint -> (Lazy.force load_kernels_i, fun i -> string_of_int (v.View.get_i i))
  in
  let compiled body kc i =
    let frame = kc.Kernel_compile.make_frame () in
    let z = [| 0.0; 1.0 |] in
    let result = ref (fun () -> Printf.sprintf "%h" z.(0)) in
    let reduces = String.contains body '#' in
    List.iter
      (fun (name, slot, _) ->
        match name with
        | "v" | "w" -> Frame.set_view frame slot v
        | "z" -> Frame.set_view frame slot (View.of_float_array ~name z)
        | "t" when v.View.elem = Ast.Edouble && not reduces -> result := fun () -> Printf.sprintf "%h" (Frame.get_float frame slot)
        | "x" when v.View.elem = Ast.Eint -> result := fun () -> string_of_int (Frame.get_int frame slot)
        | _ -> ())
      kc.Kernel_compile.params;
    kc.Kernel_compile.run_iter frame i;
    !result ()
  in
  let rec go i =
    if i >= v.View.length + 2 then None
    else
      let want = outcome (fun () -> accessor i) in
      match
        List.find_map
          (fun (body, kc) ->
            let got = outcome (fun () -> compiled body kc i) in
            if got = want then None
            else Some (Printf.sprintf "%s[%d] in %S: compiled %s, accessor %s" v.View.name i body (show got) (show want)))
          kernels
      with
      | None -> go (i + 1)
      | msg -> msg
  in
  go (-2)

(* Every view [Launch] binds: replicated (with and without dirty bits),
   reduction, 1-D distributed parts (one with [lo > 0], one with an empty
   window) and tiled parts, for both element types; and the host views. *)
let launch_views ~ints ~n ~stride ~left ~right ~cut =
  let machine = Mgacc.Machine.cluster ~nodes:2 ~gpus_per_node:2 () in
  let cfg3 = Rt_config.make ~num_gpus:3 machine and cfg4 = Rt_config.make ~num_gpus:4 machine in
  let cost = Cost.zero () in
  let rep = device_array cfg3 ~ints ~name:"rep" n in
  ignore (Darray.ensure_replicated cfg3 rep ~dirty_tracking:true);
  fill_device rep;
  let dirty g = (Darray.replica_of rep).Darray.dirty.(g) in
  let red = device_array cfg3 ~ints ~name:"red" n in
  ignore (Darray.ensure_replicated cfg3 red ~dirty_tracking:false);
  fill_device red;
  let r = Mgacc_runtime.Reduction.allocate cfg3 red Ast.Rplus in
  (* GPU 1's range is empty, so its window is; GPU 2's starts past 0, as
     [cut > left]. *)
  let dist = device_array cfg3 ~ints ~name:"dist" (n * stride) in
  let ranges = [| { Task_map.start_ = 0; stop_ = cut }; { start_ = cut; stop_ = cut }; { start_ = cut; stop_ = n } |] in
  ignore (Darray.ensure_distributed cfg3 dist ~spec:{ Darray.stride; left; right; tile = None } ~ranges);
  fill_device dist;
  let tiled = device_array cfg4 ~ints ~name:"tiled" (n * stride) in
  let spec =
    {
      Darray.stride;
      left = 0;
      right = 0;
      tile = Some { Darray.pr = 2; pc = 2; row_left = left; row_right = right; col_left = 1; col_right = 0 };
    }
  in
  let rows = Task_map.split ~lower:0 ~upper:n ~parts:2 in
  ignore (Darray.ensure_distributed cfg4 tiled ~spec ~ranges:(Array.init 4 (fun g -> rows.(g / 2))));
  fill_device tiled;
  let dist_views d gpus = List.map (fun gpu -> Launch.distributed_view d ~gpu ~miss_check:false ~cost) gpus in
  let windows = List.map (fun (v : View.t) -> (v.View.lo, v.View.hi)) (dist_views dist [ 1; 2 ]) in
  (match windows with
  | [ (lo1, hi1); (lo2, _) ] when lo1 = hi1 && lo2 > 0 -> ()
  | _ -> Alcotest.fail "the distributed parts do not cover an empty window and one with lo > 0");
  List.concat
    [
      List.concat_map
        (fun gpu ->
          [
            Launch.replicated_view rep ~gpu ~dirty:(dirty gpu) ~cost;
            Launch.replicated_view rep ~gpu ~dirty:None ~cost;
            Launch.reduction_view red ~gpu r;
          ])
        [ 0; 1; 2 ];
      dist_views dist [ 0; 1; 2 ];
      dist_views tiled [ 0; 1; 2; 3 ];
      [
        (if ints then View.of_int_array ~name:"host" (Array.init n (fun i -> 7 * i))
         else View.of_float_array ~name:"host" (Array.init n (fun i -> float_of_int i /. 3.0)));
        View.unbound;
      ];
    ]

let prop_inline_read_matches_accessors =
  let gen =
    QCheck2.Gen.(
      map
        (fun ((ints, n), (stride, left, right, k)) -> ((ints, n), (stride, left, right, 2 + (k mod (n - 2)))))
        (pair (pair bool (int_range 3 24)) (quad (int_range 1 3) (int_bound 1) (int_bound 2) (int_bound 20))))
  in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 20131003 |])
    (QCheck2.Test.make ~count:60 ~name:"view: the inline read agrees with the accessors on every Launch view"
       ~print:(fun ((ints, n), (stride, left, right, cut)) ->
         Printf.sprintf "ints=%b n=%d stride=%d left=%d right=%d cut=%d" ints n stride left right cut)
       gen
       (fun ((ints, n), (stride, left, right, cut)) ->
         let views = launch_views ~ints ~n ~stride ~left ~right ~cut in
         match List.find_map read_disagreement views with
         | None -> true
         | Some msg -> QCheck2.Test.fail_reportf "%s" msg))

(* A kernel allocates nothing per iteration: running it twice as long,
   from iteration [first], allocates the same. [bind name slot] binds each
   parameter. *)
let check_allocates_nothing ?(first = 0) what src ~params ~bind =
  let kc = compile_loop src ~params in
  let words iters =
    let frame = kc.Kernel_compile.make_frame () in
    List.iter (fun (name, slot, _) -> bind frame name slot) kc.Kernel_compile.params;
    let before = Gc.minor_words () in
    for i = first to first + iters - 1 do
      kc.Kernel_compile.run_iter frame i
    done;
    Gc.minor_words () -. before
  in
  let once = words 1000 and twice = words 2000 in
  if Float.abs (twice -. once) > 16.0 then
    Alcotest.failf "%s: 1000 iterations allocated %.0f minor words, 2000 allocated %.0f" what once twice

let kmeans_params =
  [
    ("f", Ast.Tint);
    ("k", Ast.Tint);
    ("x", Ast.Tarray Ast.Edouble);
    ("centers", Ast.Tarray Ast.Edouble);
    ("out", Ast.Tarray Ast.Edouble);
    ("membership", Ast.Tarray Ast.Eint);
    ("delta", Ast.Tint);
  ]

let bind_kmeans frame name slot =
  match name with
  | "f" -> Frame.set_int frame slot 16
  | "k" -> Frame.set_int frame slot 5
  | "x" -> Frame.set_view frame slot (View.of_float_array ~name (Array.init 32000 float_of_int))
  | "centers" -> Frame.set_view frame slot (View.of_float_array ~name (Array.make 80 0.5))
  | "out" -> Frame.set_view frame slot (View.of_float_array ~name (Array.make 2000 0.0))
  | "membership" -> Frame.set_view frame slot (View.of_int_array ~name (Array.make 2000 (-1)))
  | _ -> ()

(* kmeans: a straight-line double step, the whole distance body, two
   nested counted loops over row-major subscripts, and the centre
   reduction, whose update reads its contribution; bfs: the int edge scan,
   a counted loop bounded by a local; spmv: the row body, on the device
   views GPU 1 of 2 binds (its parts start past 0), so the in-place read
   and the counted loop's trip count are gated on those too. *)
let test_kernel_allocates_nothing_per_iteration () =
  check_allocates_nothing "kmeans step"
    {|void main() { int n = 2000; int f = 16; int k = 5; double x[n]; double centers[k*f]; double out[n]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) {
  int c = i % k;
  double d = x[i] - centers[c*f + i % f];
  double dist = out[i];
  dist = dist + d*d;
  out[i] = dist;
} }|}
    ~params:(List.filter (fun (v, _) -> v <> "membership" && v <> "delta") kmeans_params)
    ~bind:bind_kmeans;
  check_allocates_nothing "kmeans distance body"
    {|void main() { int n = 2000; int f = 16; int k = 5; double x[n*f]; double centers[k*f]; int membership[n];
int delta = 0; int i;
#pragma acc parallel loop reduction(+: delta)
for (i = 0; i < n; i++) {
  double best = 1.0e30;
  int bc = 0;
  int c;
  int j2;
  for (c = 0; c < k; c++) {
    double dist = 0.0;
    for (j2 = 0; j2 < f; j2++) {
      double d = x[i*f + j2] - centers[c*f + j2];
      dist = dist + d*d;
    }
    if (dist < best) { best = dist; bc = c; }
  }
  if (bc != membership[i]) { delta = delta + 1; membership[i] = bc; }
} }|}
    ~params:(List.filter (fun (v, _) -> v <> "out") kmeans_params)
    ~bind:bind_kmeans;
  check_allocates_nothing "kmeans centre reduction"
    {|void main() { int n = 2000; int f = 16; int k = 5; double x[n*f]; int membership[n]; double newcenters[k*f];
int counts[k]; int i;
#pragma acc parallel loop
for (i = 0; i < n; i++) {
  int c = membership[i];
  int j3;
  #pragma acc reductiontoarray(+: counts)
  counts[c] = counts[c] + 1;
  for (j3 = 0; j3 < f; j3++) {
    #pragma acc reductiontoarray(+: newcenters)
    newcenters[c*f + j3] = newcenters[c*f + j3] + x[i*f + j3];
  }
} }|}
    ~params:
      [
        ("f", Ast.Tint);
        ("x", Ast.Tarray Ast.Edouble);
        ("membership", Ast.Tarray Ast.Eint);
        ("newcenters", Ast.Tarray Ast.Edouble);
        ("counts", Ast.Tarray Ast.Eint);
      ]
    ~bind:(fun frame name slot ->
      (* The destinations are the reduction views GPU 1 of 2 binds. *)
      let cfg = Rt_config.make ~num_gpus:2 (Mgacc.Machine.desktop ()) in
      let partials host =
        let da = Darray.create cfg ~name ~host in
        ignore (Darray.ensure_replicated cfg da ~dirty_tracking:false);
        Launch.reduction_view da ~gpu:1 (Mgacc_runtime.Reduction.allocate cfg da Ast.Rplus)
      in
      match name with
      | "membership" -> Frame.set_view frame slot (View.of_int_array ~name (Array.init 2000 (fun i -> i mod 5)))
      | "newcenters" -> Frame.set_view frame slot (partials (View.of_float_array ~name (Array.make 80 0.0)))
      | "counts" -> Frame.set_view frame slot (partials (View.of_int_array ~name (Array.make 5 0)))
      | _ -> bind_kmeans frame name slot);
  let maxdeg = 6 in
  check_allocates_nothing "bfs edge scan"
    {|void main() { int n = 2000; int maxdeg = 6; int edges[n*maxdeg]; int degree[n]; int levels[n];
int level = 0; int changed = 0; int i;
#pragma acc parallel loop reduction(+: changed)
for (i = 0; i < n; i++) {
  if (levels[i] == level) {
    int deg = degree[i];
    int e2;
    for (e2 = 0; e2 < deg; e2++) {
      int j = edges[i*maxdeg + e2];
      if (levels[j] == 0 - 1) {
        levels[j] = level + 1;
        changed = changed + 1;
      }
    }
  }
} }|}
    ~params:
      [
        ("maxdeg", Ast.Tint);
        ("edges", Ast.Tarray Ast.Eint);
        ("degree", Ast.Tarray Ast.Eint);
        ("levels", Ast.Tarray Ast.Eint);
        ("level", Ast.Tint);
        ("changed", Ast.Tint);
      ]
    ~bind:(fun frame name slot ->
      match name with
      | "maxdeg" -> Frame.set_int frame slot maxdeg
      | "edges" ->
          Frame.set_view frame slot
            (View.of_int_array ~name (Array.init (2000 * maxdeg) (fun e -> (e * 7919) mod 2000)))
      | "degree" ->
          Frame.set_view frame slot (View.of_int_array ~name (Array.init 2000 (fun i -> i mod 7)))
      | "levels" ->
          (* Every node and every neighbour on the current level: each
             scan runs its full degree and writes nothing. *)
          Frame.set_view frame slot (View.of_int_array ~name (Array.make 2000 0))
      | _ -> ());
  let rows = 6000 and width = 12 in
  let cfg = Rt_config.make ~num_gpus:2 (Mgacc.Machine.desktop ()) in
  let cost = Cost.zero () in
  let ranges = Task_map.split ~lower:0 ~upper:rows ~parts:2 in
  let distributed ~stride da =
    ignore (Darray.ensure_distributed cfg da ~spec:{ Darray.stride; left = 0; right = 0; tile = None } ~ranges);
    let v = Launch.distributed_view da ~gpu:1 ~miss_check:true ~cost in
    if v.View.lo <= 0 then Alcotest.failf "%s: GPU 1's part starts at %d" v.View.name v.View.lo;
    v
  in
  let host_f name n f = Darray.create cfg ~name ~host:(View.of_float_array ~name (Array.init n f)) in
  let vals = distributed ~stride:width (host_f "vals" (rows * width) (fun e -> float_of_int (e mod 7))) in
  let cols =
    distributed ~stride:width
      (Darray.create cfg ~name:"cols"
         ~host:
           (View.of_int_array ~name:"cols"
              (Array.init (rows * width) (fun e -> if e mod 5 = 4 then -1 else e * 7919 mod rows))))
  in
  let y = distributed ~stride:1 (host_f "y" rows (fun _ -> 0.0)) in
  let xa = host_f "x" rows (fun i -> float_of_int i /. 100.0) in
  ignore (Darray.ensure_replicated cfg xa ~dirty_tracking:true);
  let x = Launch.replicated_view xa ~gpu:1 ~dirty:(Darray.replica_of xa).Darray.dirty.(1) ~cost in
  check_allocates_nothing ~first:ranges.(1).Task_map.start_ "spmv row body on device views"
    {|void main() { int n = 6000; int k = 12; double vals[n*k]; int cols[n*k]; double x[n]; double y[n];
double norm2 = 0.0; int i;
#pragma acc parallel loop reduction(+: norm2)
for (i = 0; i < n; i++) {
  double s = 0.0;
  int e2;
  for (e2 = 0; e2 < k; e2++) {
    int c = cols[i*k + e2];
    if (c >= 0) { s = s + vals[i*k + e2] * x[c]; }
  }
  y[i] = s;
  norm2 += s * s;
} }|}
    ~params:
      [
        ("k", Ast.Tint);
        ("vals", Ast.Tarray Ast.Edouble);
        ("cols", Ast.Tarray Ast.Eint);
        ("x", Ast.Tarray Ast.Edouble);
        ("y", Ast.Tarray Ast.Edouble);
        ("norm2", Ast.Tdouble);
      ]
    ~bind:(fun frame name slot ->
      match name with
      | "k" -> Frame.set_int frame slot width
      | "vals" -> Frame.set_view frame slot vals
      | "cols" -> Frame.set_view frame slot cols
      | "x" -> Frame.set_view frame slot x
      | "y" -> Frame.set_view frame slot y
      | _ -> ())

(* The lazy merge does a writer's work once, not once per destination:
   one writer's 1,000 scattered dirty runs broadcast to fully valid peers
   allocate about the same on 16 GPUs as on 4. A merge that re-conses
   the runs for every destination allocates about 4.6 times as much on
   16 and fails. *)
let test_lazy_merge_allocation_flat_in_peers () =
  let module Rt_config = Mgacc_runtime.Rt_config in
  let words gpus =
    let cfg =
      Rt_config.make ~num_gpus:gpus ~coherence:Rt_config.Lazy
        (Mgacc.Machine.cluster ~nodes:4 ~gpus_per_node:4 ())
    in
    let da = Ref_merge.replicated cfg ~ints:false ~n:4000 in
    (match (Mgacc_runtime.Darray.replica_of da).Mgacc_runtime.Darray.dirty.(0) with
    | Some d ->
        for k = 0 to 999 do
          Mgacc_runtime.Dirty.mark d (4 * k)
        done
    | None -> Alcotest.fail "no dirty bits");
    let before = Gc.minor_words () in
    ignore (Ref_merge.reconcile_runtime cfg da ~window:Mgacc_runtime.Comm_manager.Cw_all);
    Gc.minor_words () -. before
  in
  ignore (Lazy.force Ref_merge.plan);
  let four = words 4 and sixteen = words 16 in
  if sixteen >= 2.0 *. four then
    Alcotest.failf "the merge allocated %.0f minor words on 4 GPUs and %.0f on 16" four sixteen

let test_kernel_frames_count_separately () =
  let kc =
    compile_loop saxpy_src
      ~params:[ ("x", Ast.Tarray Ast.Edouble); ("y", Ast.Tarray Ast.Edouble); ("a", Ast.Tdouble) ]
  in
  let run iters =
    let frame = kc.Kernel_compile.make_frame () in
    List.iter
      (fun (name, slot, _) ->
        if name <> "a" then Frame.set_view frame slot (View.of_float_array ~name (Array.make 4 1.0)))
      kc.Kernel_compile.params;
    for i = 0 to iters - 1 do
      kc.Kernel_compile.run_iter frame i
    done;
    frame
  in
  let f3 = run 3 and f1 = run 1 in
  check Alcotest.int "first frame" 6 f3.Frame.cost.Cost.flops;
  check Alcotest.int "second frame starts at zero" 2 f1.Frame.cost.Cost.flops

let suite =
  [
    tc "view: float basics" test_view_float;
    tc "view: int and reduction operators" test_view_int_and_redops;
    tc "interp: arithmetic and control flow" test_interp_arith_and_control;
    tc "interp: functions and recursion" test_interp_functions;
    tc "interp: builtins and casts" test_interp_builtins_and_casts;
    tc "interp: sequential parallel loop + reduction" test_interp_sequential_parallel_loop;
    tc "interp: runtime errors" test_interp_runtime_errors;
    tc "kernel: compiles and computes saxpy" test_kernel_compile_runs;
    tc "kernel: gathers count as random" test_kernel_compile_gather_counts_random;
    tc "kernel: rejects invalid bodies" test_kernel_compile_rejects;
    tc "kernel: control flow, ints, bit ops" test_kernel_control_flow_and_ints;
    tc "kernel: per-iteration local initialization" test_kernel_frame_reuse_between_iterations;
    tc "kernel: reduction statement extraction" test_extract_reduction_patterns;
    tc "forks: double conditions are true when non-zero" test_double_conditions;
    tc "forks: ints compare exactly" test_int_compare_is_exact;
    tc "forks: kernel division by zero is located" test_kernel_division_by_zero_is_located;
    tc "env: a live array keeps one view" test_env_views_are_stable;
    tc "env: loop ids follow first execution" test_loop_ids_follow_first_execution;
    tc "env: a hook sees the pragma's scope" test_env_scope_is_the_pragmas;
    tc "env: an escaping break is a located error" test_escaping_break_is_located;
    tc "runtime: device-path faults are located errors" test_device_path_errors_are_located;
    prop_compiled_matches_reference;
    tc "kernel: every operand shape matches the reference, counts included" test_kernel_shape_matrix;
    tc "kernel: fused operators and folded literals match the reference, faults included"
      test_kernel_fused_matrix;
    prop_kernel_matches_reference;
    prop_inline_read_matches_accessors;
    tc "kernel: a double body allocates nothing per iteration" test_kernel_allocates_nothing_per_iteration;
    tc "lazy merge: allocation flat in the number of peers" test_lazy_merge_allocation_flat_in_peers;
    tc "kernel: each frame has its own cost counter" test_kernel_frames_count_separately;
  ]
