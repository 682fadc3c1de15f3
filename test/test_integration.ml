(* End-to-end tests: whole OpenACC programs through the multi-GPU runtime,
   checked against the sequential reference, plus runtime-behaviour
   assertions (reuse, dirty traffic, miss buffering, halo exchange,
   window-violation detection, ablations). *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let machine () = Mgacc.Machine.desktop ()

let run_acc ?(num_gpus = 2) ?config src =
  let m = machine () in
  let config =
    match config with Some c -> c | None -> Mgacc.Rt_config.make ~num_gpus m
  in
  Mgacc.run_acc ~config (Mgacc.parse_string ~name:"t.c" src)

let reference src = Mgacc.run_sequential (Mgacc.parse_string ~name:"t.c" src)

let check_floats name ref_env env =
  check
    (Alcotest.array (Alcotest.float 1e-9))
    name
    (Mgacc.float_results ref_env name)
    (Mgacc.float_results env name)

let check_ints name ref_env env =
  check (Alcotest.array Alcotest.int) name (Mgacc.int_results ref_env name)
    (Mgacc.int_results env name)

(* ---------------- basic distribution ---------------- *)

let saxpy_src =
  {|void main() {
      int n = 10000; double x[n]; double y[n]; double a = 3.0; int i;
      for (i = 0; i < n; i++) { x[i] = 0.5 * i; y[i] = 1.0; }
      #pragma acc data copyin(x[0:n]) copy(y[0:n])
      {
        #pragma acc parallel loop localaccess(x: stride(1), y: stride(1))
        for (i = 0; i < n; i++) { y[i] = y[i] + a * x[i]; }
      }
    }|}

let test_saxpy_all_gpu_counts () =
  let ref_env = reference saxpy_src in
  List.iter
    (fun n ->
      let env, report = run_acc ~num_gpus:n saxpy_src in
      check_floats "y" ref_env env;
      check Alcotest.int "one loop" 1 report.Mgacc.Report.loops;
      (* Distributed arrays, no replicated writes: no GPU-GPU traffic. *)
      check Alcotest.int "no p2p" 0 report.Mgacc.Report.gpu_gpu_bytes)
    [ 1; 2 ]

let test_distribution_shrinks_memory () =
  (* With localaccess, each GPU holds ~half of x and y. Without (ablation),
     everything is replicated on both GPUs. *)
  let _, with_la = run_acc ~num_gpus:2 saxpy_src in
  let options =
    {
      Mgacc.Kernel_plan.enable_distribution = false;
      enable_layout_transform = false;
      enable_miss_check_elim = false;
      enable_fusion = false;
      enable_decomp2d = false;
    }
  in
  let m = machine () in
  let config = Mgacc.Rt_config.make ~num_gpus:2 ~translator:options m in
  let _, without_la =
    Mgacc.run_acc ~config (Mgacc.parse_string ~name:"t.c" saxpy_src)
  in
  check Alcotest.bool "distribution halves user memory" true
    (with_la.Mgacc.Report.mem_user_bytes * 3 < without_la.Mgacc.Report.mem_user_bytes * 2);
  (* Replicated + written y now needs dirty reconciliation. *)
  check Alcotest.bool "replication causes p2p" true
    (without_la.Mgacc.Report.gpu_gpu_bytes > 0)

(* ---------------- iterative reuse ---------------- *)

let test_iterative_reuse () =
  let src =
    {|void main() {
        int n = 1000; double a[n]; int i; int it;
        for (i = 0; i < n; i++) { a[i] = 1.0 * i; }
        #pragma acc data copy(a[0:n])
        {
          for (it = 0; it < 10; it++) {
            #pragma acc parallel loop localaccess(a: stride(1))
            for (i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
          }
        }
      }|}
  in
  let ref_env = reference src in
  let env, report = run_acc ~num_gpus:2 src in
  check_floats "a" ref_env env;
  (* The data loader must load once and reuse for the other 9 launches:
     total CPU-GPU traffic = initial load (8000B) + copyout (8000B). *)
  check Alcotest.int "loaded once, copied out once" 16000 report.Mgacc.Report.cpu_gpu_bytes

(* ---------------- replicated writes: dirty reconciliation ---------------- *)

let scatter_src =
  {|void main() {
      int n = 4000; double a[n]; int idx[n]; int i; int seed = 1;
      for (i = 0; i < n; i++) { a[i] = 0.0; }
      for (i = 0; i < n; i++) {
        seed = (seed * 1103515245 + 12345) % 2147483648;
        idx[i] = seed % n;
      }
      #pragma acc data copyin(idx[0:n]) copy(a[0:n])
      {
        #pragma acc parallel loop localaccess(idx: stride(1))
        for (i = 0; i < n; i++) { a[idx[i]] = 1.0 * i; }
      }
    }|}

let test_replicated_scatter () =
  (* Writes through idx land on a replicated array; GPUs must reconcile.
     Note: colliding indices are written by increasing i in the sequential
     reference and merged in GPU order here — to keep the oracle exact the
     comparison needs collision-free indices, so run a permutation. *)
  let src =
    {|void main() {
        int n = 4000; double a[n]; int idx[n]; int i;
        for (i = 0; i < n; i++) { a[i] = 0.0; idx[i] = (i * 7) % n; }
        #pragma acc data copyin(idx[0:n]) copy(a[0:n])
        {
          #pragma acc parallel loop localaccess(idx: stride(1))
          for (i = 0; i < n; i++) { a[idx[i]] = 1.0 * i; }
        }
      }|}
  in
  let ref_env = reference src in
  let env, report = run_acc ~num_gpus:2 src in
  check_floats "a" ref_env env;
  check Alcotest.bool "dirty traffic happened" true (report.Mgacc.Report.gpu_gpu_bytes > 0)

let test_chunk_size_changes_traffic () =
  (* Clustered scatter: all writes land in the first eighth of the array.
     Small chunks ship only the dirty region; a chunk as big as the whole
     array ships everything. *)
  let clustered =
    {|void main() {
        int n = 4000; double a[n]; int i;
        for (i = 0; i < n; i++) { a[i] = 0.0; }
        #pragma acc data copy(a[0:n])
        {
          #pragma acc parallel loop
          for (i = 0; i < n; i++) { a[(i * 13) % 500] = 1.0; }
        }
      }|}
  in
  let m1 = machine () in
  let c1 = Mgacc.Rt_config.make ~num_gpus:2 ~chunk_bytes:512 m1 in
  let _, small = Mgacc.run_acc ~config:c1 (Mgacc.parse_string ~name:"t" clustered) in
  let m2 = machine () in
  let c2 = Mgacc.Rt_config.make ~num_gpus:2 ~chunk_bytes:(1024 * 1024) m2 in
  let _, big = Mgacc.run_acc ~config:c2 (Mgacc.parse_string ~name:"t" clustered) in
  check Alcotest.bool "small chunks ship less" true
    (small.Mgacc.Report.gpu_gpu_bytes * 2 < big.Mgacc.Report.gpu_gpu_bytes)

let test_single_level_ships_more () =
  let m1 = machine () in
  let c1 = Mgacc.Rt_config.make ~num_gpus:2 ~two_level_dirty:false m1 in
  let _, one = Mgacc.run_acc ~config:c1 (Mgacc.parse_string ~name:"t" scatter_src) in
  let m2 = machine () in
  let c2 = Mgacc.Rt_config.make ~num_gpus:2 ~two_level_dirty:true ~chunk_bytes:4096 m2 in
  let _, two = Mgacc.run_acc ~config:c2 (Mgacc.parse_string ~name:"t" scatter_src) in
  check Alcotest.bool "single-level ships at least as much" true
    (one.Mgacc.Report.gpu_gpu_bytes >= two.Mgacc.Report.gpu_gpu_bytes)

(* ---------------- distributed writes: miss buffers & halos ---------------- *)

let test_write_miss_forwarding () =
  (* Each iteration writes its left neighbor's slot: iteration at a GPU
     boundary writes into the other GPU's block -> write miss. *)
  let src =
    {|void main() {
        int n = 1000; double a[n]; int i;
        for (i = 0; i < n; i++) { a[i] = 0.0; }
        #pragma acc data copy(a[0:n])
        {
          #pragma acc parallel loop localaccess(a: stride(1, 1, 0))
          for (i = 0; i < n; i++) {
            if (i > 0) { a[i - 1] = 1.0 * i; }
          }
        }
      }|}
  in
  let ref_env = reference src in
  let env, report = run_acc ~num_gpus:2 src in
  check_floats "a" ref_env env;
  (* Exactly one boundary write missed: a tiny P2P record plus halo refresh. *)
  check Alcotest.bool "some p2p" true (report.Mgacc.Report.gpu_gpu_bytes > 0)

let test_jacobi_halo_exchange () =
  let src =
    {|void main() {
        int n = 2000; double a[n]; double b[n]; int i; int it;
        for (i = 0; i < n; i++) { a[i] = 1.0 * (i % 17); b[i] = 0.0; }
        #pragma acc data copy(a[0:n]) copy(b[0:n])
        {
          for (it = 0; it < 4; it++) {
            #pragma acc parallel loop localaccess(a: stride(1, 1, 1), b: stride(1))
            for (i = 0; i < n; i++) {
              if (i > 0 && i < n - 1) { b[i] = (a[i-1] + a[i] + a[i+1]) / 3.0; }
            }
            #pragma acc parallel loop localaccess(a: stride(1), b: stride(1, 1, 1))
            for (i = 0; i < n; i++) {
              if (i > 0 && i < n - 1) { a[i] = (b[i-1] + b[i] + b[i+1]) / 3.0; }
            }
          }
        }
      }|}
  in
  let ref_env = reference src in
  let env, report = run_acc ~num_gpus:2 src in
  check_floats "a" ref_env env;
  check_floats "b" ref_env env;
  (* Halo refreshes every sweep: small but non-zero P2P traffic. *)
  check Alcotest.bool "halo traffic" true (report.Mgacc.Report.gpu_gpu_bytes > 0);
  check Alcotest.bool "halo traffic small" true
    (report.Mgacc.Report.gpu_gpu_bytes < 8 * 4 * 2 * 16)

let test_stencil2d_row_distribution () =
  (* 2-D arrays (paper §VI future work): rows distribute across GPUs; halo
     rows are exchanged after each sweep. *)
  let src =
    {|void main() {
        int rows = 60; int cols = 40; int it; int r; int c;
        double u[rows][cols];
        double v[rows][cols];
        for (r = 0; r < rows; r++) { for (c = 0; c < cols; c++) { u[r][c] = 1.0 * ((r * 7 + c) % 13); v[r][c] = 0.0; } }
        #pragma acc data copy(u[0:rows*cols]) copy(v[0:rows*cols])
        {
          for (it = 0; it < 3; it++) {
            #pragma acc parallel loop localaccess(u: stride(cols, cols, cols), v: stride(cols))
            for (r = 0; r < rows; r++) {
              if (r > 0 && r < rows - 1) {
                for (c = 1; c < cols - 1; c++) {
                  v[r][c] = 0.25 * (u[r-1][c] + u[r+1][c] + u[r][c-1] + u[r][c+1]);
                }
              }
            }
            #pragma acc parallel loop localaccess(v: stride(cols, cols, cols), u: stride(cols))
            for (r = 0; r < rows; r++) {
              if (r > 0 && r < rows - 1) {
                for (c = 1; c < cols - 1; c++) {
                  u[r][c] = 0.25 * (v[r-1][c] + v[r+1][c] + v[r][c-1] + v[r][c+1]);
                }
              }
            }
          }
        }
      }|}
  in
  let ref_env = reference src in
  let env, report = run_acc ~num_gpus:2 src in
  check_floats "u" ref_env env;
  check_floats "v" ref_env env;
  check Alcotest.bool "halo rows exchanged" true (report.Mgacc.Report.gpu_gpu_bytes > 0);
  (* Traffic is halo rows, not whole grids. *)
  check Alcotest.bool "only halo rows" true
    (report.Mgacc.Report.gpu_gpu_bytes < 6 * 4 * 40 * 8)

(* The same 2-D stencil with an inner parallel column loop: under
   [enable_decomp2d] and 4 GPUs the runtime partitions rows *and* columns
   (2x2 grid) and still matches the sequential reference exactly. *)
let stencil2d_vector_src =
  {|void main() {
      int rows = 48; int cols = 36; int it; int r; int c;
      double u[rows][cols];
      double v[rows][cols];
      for (r = 0; r < rows; r++) { for (c = 0; c < cols; c++) { u[r][c] = 1.0 * ((r * 7 + c) % 13); v[r][c] = 0.0; } }
      #pragma acc data copy(u[0:rows*cols]) copy(v[0:rows*cols])
      {
        for (it = 0; it < 3; it++) {
          #pragma acc parallel loop localaccess(u: stride(cols, cols, cols), v: stride(cols))
          for (r = 0; r < rows; r++) {
            if (r > 0 && r < rows - 1) {
              #pragma acc loop
              for (c = 1; c < cols - 1; c++) {
                v[r][c] = 0.25 * (u[r-1][c] + u[r+1][c] + u[r][c-1] + u[r][c+1]);
              }
            }
          }
          #pragma acc parallel loop localaccess(v: stride(cols, cols, cols), u: stride(cols))
          for (r = 0; r < rows; r++) {
            if (r > 0 && r < rows - 1) {
              #pragma acc loop
              for (c = 1; c < cols - 1; c++) {
                u[r][c] = 0.25 * (v[r-1][c] + v[r+1][c] + v[r][c-1] + v[r][c+1]);
              }
            }
          }
        }
      }
    }|}

let decomp2d_options =
  {
    Mgacc.Kernel_plan.enable_distribution = true;
    enable_layout_transform = true;
    enable_miss_check_elim = true;
    enable_fusion = false;
    enable_decomp2d = true;
  }

let test_stencil2d_2d_decomposition () =
  let ref_env = reference stencil2d_vector_src in
  let m = Mgacc.Machine.cluster ~nodes:2 ~gpus_per_node:2 () in
  let config = Mgacc.Rt_config.make ~num_gpus:4 ~translator:decomp2d_options m in
  let env, report =
    Mgacc.run_acc ~config (Mgacc.parse_string ~name:"t.c" stencil2d_vector_src)
  in
  check_floats "u" ref_env env;
  check_floats "v" ref_env env;
  check Alcotest.bool "halo traffic" true (report.Mgacc.Report.gpu_gpu_bytes > 0)

let test_stencil2d_2d_matches_1d () =
  (* Same program, same machine: the 2-D run must agree with the pinned
     1-D run bit for bit (values never ride the decomposition), and its
     halo exchange must move fewer bytes (O(n/sqrt P) vs O(n) edges). *)
  let m1 = Mgacc.Machine.cluster ~nodes:2 ~gpus_per_node:2 () in
  let config_1d = Mgacc.Rt_config.make ~num_gpus:4 m1 in
  let env1, report1 =
    Mgacc.run_acc ~config:config_1d
      (Mgacc.parse_string ~name:"t.c" stencil2d_vector_src)
  in
  let m2 = Mgacc.Machine.cluster ~nodes:2 ~gpus_per_node:2 () in
  let config_2d = Mgacc.Rt_config.make ~num_gpus:4 ~translator:decomp2d_options m2 in
  let env2, report2 =
    Mgacc.run_acc ~config:config_2d
      (Mgacc.parse_string ~name:"t.c" stencil2d_vector_src)
  in
  check (Alcotest.array (Alcotest.float 0.0)) "u identical"
    (Mgacc.float_results env1 "u") (Mgacc.float_results env2 "u");
  check (Alcotest.array (Alcotest.float 0.0)) "v identical"
    (Mgacc.float_results env1 "v") (Mgacc.float_results env2 "v");
  check Alcotest.bool "both exchange halos" true
    (report1.Mgacc.Report.gpu_gpu_bytes > 0 && report2.Mgacc.Report.gpu_gpu_bytes > 0)

let test_inner_vector_improves_occupancy () =
  (* Few outer iterations: without nested parallelism the GPU starves;
     vector lanes on the inner loop recover throughput. *)
  let mk vector_pragma =
    Printf.sprintf
      {|void main() {
          int rows = 128; int cols = 2048; int r; int c;
          double u[rows][cols];
          for (r = 0; r < rows; r++) { for (c = 0; c < cols; c++) { u[r][c] = 1.0; } }
          #pragma acc parallel loop localaccess(u: stride(cols))
          for (r = 0; r < rows; r++) {
            %s
            for (c = 0; c < cols; c++) { u[r][c] = u[r][c] * 2.0 + 1.0; }
          }
        }|}
      vector_pragma
  in
  let flat_src = mk "" and vec_src = mk "#pragma acc loop vector(256)" in
  let ref_env = reference vec_src in
  let env, vec = run_acc ~num_gpus:2 vec_src in
  check_floats "u" ref_env env;
  let _, flat = run_acc ~num_gpus:2 flat_src in
  check Alcotest.bool "vector lanes speed the kernel" true
    (vec.Mgacc.Report.kernel_time *. 2.0 < flat.Mgacc.Report.kernel_time)

let test_window_violation_detected () =
  (* The directive lies: iteration i reads a[i + 5] but declares stride(1). *)
  let src =
    {|void main() {
        int n = 100; double a[n]; double b[n]; int i;
        for (i = 0; i < n; i++) { a[i] = 1.0; }
        #pragma acc parallel loop localaccess(a: stride(1), b: stride(1))
        for (i = 0; i < n; i++) { b[i] = a[(i + 50) % n]; }
      }|}
  in
  match run_acc ~num_gpus:2 src with
  | exception Mgacc_runtime.Launch.Window_violation { array = "a"; _ } -> ()
  | _ -> Alcotest.fail "expected a window violation"

(* An out-of-range subscript raises [View.Bounds] naming the array, the
   index and the length, on the host and on one or two GPUs: a plain
   write to a replicated array, a read of an int array, a
   [reductiontoarray] update, a miss-checked write to a distributed
   array and a host statement. *)
let test_out_of_range_subscripts () =
  let cases =
    [
      ( "replicated write",
        {|void main() { int n = 16; double a[n]; int i;
            for (i = 0; i < n; i++) { a[i] = 0.0; }
            #pragma acc parallel loop
            for (i = 0; i < n; i++) { a[i + 100] = 1.0; } }|},
        ("a", 100, 16) );
      ( "int read",
        {|void main() { int n = 16; int a[n]; int i;
            for (i = 0; i < n; i++) { a[i] = i; }
            #pragma acc parallel loop
            for (i = 0; i < n; i++) { a[i] = a[i] + a[i - 20]; } }|},
        ("a", -20, 16) );
      ( "reductiontoarray",
        {|void main() { int n = 16; double h[4]; double x[n]; int i;
            for (i = 0; i < 4; i++) { h[i] = 0.0; }
            for (i = 0; i < n; i++) { x[i] = 1.0; }
            #pragma acc parallel loop
            for (i = 0; i < n; i++) {
              #pragma acc reductiontoarray(+: h)
              h[i] += x[i];
            } }|},
        ("h", 4, 4) );
      ( "distributed miss write",
        {|void main() { int n = 16; double a[n]; int i;
            for (i = 0; i < n; i++) { a[i] = 0.0; }
            #pragma acc parallel loop localaccess(a: stride(1))
            for (i = 0; i < n; i++) { a[i + 100] = 1.0; } }|},
        ("a", 100, 16) );
      ( "host statement",
        {|void main() { int n = 16; double a[n]; int i;
            for (i = 0; i < n; i++) { a[i] = 0.0; }
            a[n + 3] = 1.0; }|},
        ("a", 19, 16) );
    ]
  in
  List.iter
    (fun (what, src, (name, index, length)) ->
      let expect where run =
        match run () with
        | exception Mgacc.View.Bounds b ->
            check
              Alcotest.(triple string int int)
              (what ^ " on " ^ where) (name, index, length)
              (b.name, b.index, b.length)
        | _ -> Alcotest.failf "%s on %s: no bounds error" what where
      in
      expect "the host" (fun () -> ignore (reference src));
      List.iter
        (fun num_gpus ->
          expect (Printf.sprintf "%d GPU(s)" num_gpus) (fun () -> ignore (run_acc ~num_gpus src)))
        [ 1; 2 ])
    cases

(* ---------------- reductions ---------------- *)

let test_scalar_reduction_across_gpus () =
  let src =
    {|void main() {
        int n = 5000; double x[n]; int i; double s = 100.0; int cnt = 0;
        for (i = 0; i < n; i++) { x[i] = 0.001 * i; }
        #pragma acc data copyin(x[0:n])
        {
          #pragma acc parallel loop reduction(+: s) reduction(+: cnt) localaccess(x: stride(1))
          for (i = 0; i < n; i++) { s += x[i]; if (x[i] > 1.0) { cnt = cnt + 1; } }
        }
      }|}
  in
  let ref_env = reference src in
  let env, _ = run_acc ~num_gpus:2 src in
  let g name = Mgacc.Host_interp.get_scalar env name in
  let r name = Mgacc.Host_interp.get_scalar ref_env name in
  (match (g "s", r "s") with
  | Mgacc.Host_interp.Vfloat a, Mgacc.Host_interp.Vfloat b ->
      check (Alcotest.float 1e-6) "sum" b a
  | _ -> Alcotest.fail "s kind");
  match (g "cnt", r "cnt") with
  | Mgacc.Host_interp.Vint a, Mgacc.Host_interp.Vint b -> check Alcotest.int "count" b a
  | _ -> Alcotest.fail "cnt kind"

let test_reduction_to_array () =
  let src =
    {|void main() {
        int n = 3000; int bins = 16; double x[n]; double hist[bins]; int i;
        int seed = 9;
        for (i = 0; i < n; i++) {
          seed = (seed * 1103515245 + 12345) % 2147483648;
          x[i] = (seed % 100) / 100.0;
        }
        for (i = 0; i < bins; i++) { hist[i] = 0.0; }
        #pragma acc data copyin(x[0:n]) copy(hist[0:bins])
        {
          #pragma acc parallel loop localaccess(x: stride(1))
          for (i = 0; i < n; i++) {
            int b = (int)(x[i] * 16.0);
            #pragma acc reductiontoarray(+: hist)
            hist[b] += 1.0;
          }
        }
      }|}
  in
  let ref_env = reference src in
  let env, report = run_acc ~num_gpus:2 src in
  check_floats "hist" ref_env env;
  (* Partials travel between GPUs. *)
  check Alcotest.bool "reduction traffic" true (report.Mgacc.Report.gpu_gpu_bytes > 0);
  (* The whole histogram arrived. *)
  let total = Array.fold_left ( +. ) 0.0 (Mgacc.float_results env "hist") in
  check (Alcotest.float 1e-9) "mass conserved" 3000.0 total

(* ---------------- update directives & regions ---------------- *)

let test_update_directives () =
  let src =
    {|void main() {
        int n = 500; double a[n]; int i;
        for (i = 0; i < n; i++) { a[i] = 1.0; }
        #pragma acc data copy(a[0:n])
        {
          #pragma acc parallel loop localaccess(a: stride(1))
          for (i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
          #pragma acc update host(a[0:n])
          ;
          for (i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
          #pragma acc update device(a[0:n])
          ;
          #pragma acc parallel loop localaccess(a: stride(1))
          for (i = 0; i < n; i++) { a[i] = a[i] + 0.5; }
        }
      }|}
  in
  let ref_env = reference src in
  let env, _ = run_acc ~num_gpus:2 src in
  check_floats "a" ref_env env;
  let a = Mgacc.float_results env "a" in
  check (Alcotest.float 1e-12) "value" 4.5 a.(0)

let test_enter_exit_data () =
  (* Unstructured data lifetimes: enter data pins the array on the device
     across arbitrary control flow; exit data copies out and releases. *)
  let src =
    {|void main() {
        int n = 2000; double a[n]; int i; int it;
        for (i = 0; i < n; i++) { a[i] = 1.0 * i; }
        #pragma acc enter data copyin(a[0:n])
        ;
        for (it = 0; it < 5; it++) {
          #pragma acc parallel loop localaccess(a: stride(1))
          for (i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
        }
        #pragma acc exit data copyout(a[0:n])
        ;
      }|}
  in
  let ref_env = reference src in
  let env, report = run_acc ~num_gpus:2 src in
  check_floats "a" ref_env env;
  (* One load, one copyout: 2 x 16000 bytes. *)
  check Alcotest.int "no per-loop thrash" 32000 report.Mgacc.Report.cpu_gpu_bytes

let test_if_clause_host_fallback () =
  (* The second loop's if(n > 5000) is false: it must run on the host with
     the device copy flushed out and reloaded around it. *)
  let src =
    {|void main() {
        int n = 1000; double a[n]; int i;
        for (i = 0; i < n; i++) { a[i] = 1.0; }
        #pragma acc data copy(a[0:n])
        {
          #pragma acc parallel loop localaccess(a: stride(1))
          for (i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
          #pragma acc parallel loop if(n > 5000) localaccess(a: stride(1))
          for (i = 0; i < n; i++) { a[i] = a[i] * 10.0; }
          #pragma acc parallel loop if(n > 500) localaccess(a: stride(1))
          for (i = 0; i < n; i++) { a[i] = a[i] + 0.5; }
        }
      }|}
  in
  let ref_env = reference src in
  let env, report = run_acc ~num_gpus:2 src in
  check_floats "a" ref_env env;
  let a = Mgacc.float_results env "a" in
  check (Alcotest.float 1e-12) "all three loops ran" 20.5 a.(0);
  (* The host bounce costs extra CPU-GPU traffic: flush + reload of a. *)
  check Alcotest.bool "bounce traffic charged" true
    (report.Mgacc.Report.cpu_gpu_bytes >= 4 * 8000)

let test_oom_and_distribution_capacity () =
  (* A machine with tiny (1 MB) GPUs: a 1.6 MB replicated array cannot fit
     one GPU, but distributed over two it can — the "more GPUs, more
     memory" benefit the paper highlights. *)
  let tiny_gpu = { Mgacc.Spec.tesla_c2075 with Mgacc.Spec.mem_capacity = 1024 * 1024 } in
  let mk n =
    Mgacc.Machine.custom ~name:"tiny" ~cpu:Mgacc.Spec.core_i7_970 ~gpu:tiny_gpu
      ~link:Mgacc.Spec.pcie_gen2_desktop ~num_gpus:n ~omp_threads:4 ()
  in
  let src =
    {|void main() {
        int n = 200000; double a[n]; int i;
        #pragma acc parallel loop localaccess(a: stride(1))
        for (i = 0; i < n; i++) { a[i] = 1.0 * i; }
      }|}
  in
  let program = Mgacc.parse_string ~name:"t" src in
  (match Mgacc.run_acc ~config:(Mgacc.Rt_config.make (mk 1)) program with
  | exception Mgacc.Memory.Out_of_device_memory _ -> ()
  | _ -> Alcotest.fail "expected device OOM on one tiny GPU");
  (* Two GPUs hold ~0.8 MB each: fits. *)
  let env, _ = Mgacc.run_acc ~config:(Mgacc.Rt_config.make (mk 2)) program in
  let a = Mgacc.float_results env "a" in
  check (Alcotest.float 1e-12) "computed" 199999.0 a.(199999)

let suite =
  [
    tc "saxpy: correct on 1 and 2 GPUs" test_saxpy_all_gpu_counts;
    tc "distribution policy shrinks footprints" test_distribution_shrinks_memory;
    tc "data loader reuses unchanged placements" test_iterative_reuse;
    tc "replicated scatter reconciles via dirty bits" test_replicated_scatter;
    tc "dirty chunk size changes traffic" test_chunk_size_changes_traffic;
    tc "single-level dirty ships more" test_single_level_ships_more;
    tc "write misses forward to the owner" test_write_miss_forwarding;
    tc "jacobi: halo exchange" test_jacobi_halo_exchange;
    tc "2-D stencil: row distribution and halo rows" test_stencil2d_row_distribution;
    tc "2-D stencil: 2-D block decomposition matches reference" test_stencil2d_2d_decomposition;
    tc "2-D stencil: 2-D run identical to 1-D, halos exchanged" test_stencil2d_2d_matches_1d;
    tc "nested parallelism: vector lanes raise occupancy" test_inner_vector_improves_occupancy;
    tc "lying localaccess directives are caught" test_window_violation_detected;
    tc "out-of-range subscripts name the array" test_out_of_range_subscripts;
    tc "scalar reductions merge across GPUs" test_scalar_reduction_across_gpus;
    tc "reductiontoarray: histogram" test_reduction_to_array;
    tc "update host/device directives" test_update_directives;
    tc "enter/exit data: unstructured lifetimes" test_enter_exit_data;
    tc "if clause: host fallback with data bounce" test_if_clause_host_fallback;
    tc "device OOM and distribution capacity" test_oom_and_distribution_capacity;
  ]
