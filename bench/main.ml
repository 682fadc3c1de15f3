(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Komoda et al., ICPP 2013), plus the ablations DESIGN.md
   calls out.

     dune exec bench/main.exe                 -- everything, default scale
     dune exec bench/main.exe -- fig7         -- one experiment
     dune exec bench/main.exe -- --scale small all
     dune exec bench/main.exe -- --smoke overlap  -- tiny configuration, writes nothing

   Absolute numbers come from the simulated machines (Table I presets);
   the paper's shapes — who wins, by what factor, where communication
   dominates — are the reproduction target. EXPERIMENTS.md records a
   paper-vs-measured comparison for each experiment. *)

open Mgacc
open Mgacc_apps
module Table = Mgacc_util.Table
module Json = Mgacc_util.Json

type scale = Small | Default | Paper

let scale_name = function Small -> "small" | Default -> "default" | Paper -> "paper"

let md_params = function
  | Small -> { Md.atoms = 1024; max_neighbors = 16; seed = 42 }
  | Default -> Md.default_params
  | Paper -> Md.paper_params

let kmeans_params = function
  | Small -> { Kmeans.points = 4000; features = 12; clusters = 5; iterations = 6; seed = 11 }
  | Default -> Kmeans.default_params
  | Paper -> Kmeans.paper_params

let bfs_params = function
  | Small -> { Bfs.nodes = 12000; max_degree = 10; seed = 5 }
  | Default -> Bfs.default_params
  | Paper -> Bfs.paper_params

type app_kind = MD | KMEANS | BFS

let app_name = function MD -> "md" | KMEANS -> "kmeans" | BFS -> "bfs"
let all_apps = [ MD; KMEANS; BFS ]

let app_of kind scale =
  match kind with
  | MD -> Md.app (md_params scale)
  | KMEANS -> Kmeans.app (kmeans_params scale)
  | BFS -> Bfs.app (bfs_params scale)

let run_cuda kind scale machine =
  match kind with
  | MD -> snd (Md.run_cuda ~machine (md_params scale))
  | KMEANS ->
      let _, _, r = Kmeans.run_cuda ~machine (kmeans_params scale) in
      r
  | BFS -> snd (Bfs.run_cuda ~machine (bfs_params scale))

(* ------------------------------------------------------------------ *)
(* Run collection: one set of reports reused by Figs. 7/8/9.           *)
(* ------------------------------------------------------------------ *)

type platform = { pname : string; fresh : unit -> Machine.t; gpu_counts : int list }

let desktop = { pname = "Desktop Machine"; fresh = (fun () -> Machine.desktop ()); gpu_counts = [ 1; 2 ] }

let supernode =
  { pname = "Supercomputer Node"; fresh = (fun () -> Machine.supernode ()); gpu_counts = [ 1; 2; 3 ] }

let platforms = [ desktop; supernode ]

type collected = {
  platform : string;
  kind : app_kind;
  openmp : Report.t;
  pgi : Report.t;
  cuda : Report.t;
  proposals : (int * Report.t) list;  (** by GPU count *)
}

let progress fmt = Printf.eprintf (fmt ^^ "\n%!")

(* The paper's settings on [n] GPUs of a fresh desktop. *)
let desktop n = Rt_config.make ~num_gpus:n (Machine.desktop ())

(* [cfg] with mode switch [name] set to the value spelled [v]. *)
let set_mode cfg name v = match Rt_config.set cfg name v with Ok cfg -> cfg | Error e -> failwith e

(* A tracked BENCH_*.json is written only from the configuration it
   records: never from a --smoke run, and, for artifacts that carry a
   "scale" key, only at that declared scale ([scale] is the pair (this
   run's scale, declared scale)). Any other run prints its table and
   leaves the committed artifact alone. *)
let write_artifact ?scale ~smoke file json =
  match scale with
  | _ when smoke -> Printf.printf "\nsmoke configuration: no %s written\n" file
  | Some (run, declared) when run <> declared ->
      Printf.printf "\nscale %s: no %s written (it is tracked at --scale %s)\n" (scale_name run)
        file (scale_name declared)
  | _ ->
      let oc = open_out file in
      output_string oc (Json.to_string json ^ "\n");
      close_out oc;
      Printf.printf "\nwrote %s\n" file

let collect_app scale platform kind =
  let app = app_of kind scale in
  progress "  [%s] %s: openmp..." platform.pname (app_name kind);
  let _, openmp = App_common.openmp ~machine:(platform.fresh ()) app in
  progress "  [%s] %s: pgi(1)..." platform.pname (app_name kind);
  let _, pgi = App_common.pgi ~machine:(platform.fresh ()) app in
  progress "  [%s] %s: cuda(1)..." platform.pname (app_name kind);
  let cuda = run_cuda kind scale (platform.fresh ()) in
  let proposals =
    List.map
      (fun n ->
        progress "  [%s] %s: proposal(%d)..." platform.pname (app_name kind) n;
        let _, r = App_common.proposal (Rt_config.make ~num_gpus:n (platform.fresh ())) app in
        (n, r))
      platform.gpu_counts
  in
  { platform = platform.pname; kind; openmp; pgi; cuda; proposals }

let collect scale =
  List.concat_map (fun p -> List.map (collect_app scale p) all_apps) platforms

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  print_endline "== Table I: machine settings (simulated; Mixed Desktop added for the scheduler study) ==";
  let t = Table.create ~headers:[ ""; "Desktop Machine"; "Supercomputer Node"; "Mixed Desktop" ] in
  let d = Machine.desktop () and s = Machine.supernode () and m = Machine.desktop_mixed () in
  Table.add_row t
    [
      "CPU";
      Format.asprintf "%a" Spec.pp_cpu d.Machine.cpu;
      Format.asprintf "%a" Spec.pp_cpu s.Machine.cpu;
      Format.asprintf "%a" Spec.pp_cpu m.Machine.cpu;
    ];
  Table.add_row t
    [
      "GPUs";
      Format.asprintf "%a x2" Spec.pp_gpu (Machine.device d 0).Mgacc_gpusim.Device.spec;
      Format.asprintf "%a x3" Spec.pp_gpu (Machine.device s 0).Mgacc_gpusim.Device.spec;
      Format.asprintf "%a + %a" Spec.pp_gpu (Machine.device m 0).Mgacc_gpusim.Device.spec
        Spec.pp_gpu (Machine.device m 1).Mgacc_gpusim.Device.spec;
    ];
  Table.add_row t [ "OpenMP threads"; "12"; "24"; "12" ];
  Table.print ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Left ] t;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table II                                                            *)
(* ------------------------------------------------------------------ *)

let table2 scale =
  Printf.printf "== Table II: application characteristics (scale: %s) ==\n" (scale_name scale);
  print_endline
    "A: device memory in single-GPU run, B: # parallel loops, C: # kernel executions,";
  print_endline "D: # arrays with localaccess / # arrays used in parallel loops\n";
  let t = Table.create ~headers:[ "Application"; "A"; "B"; "C"; "D"; "A(paper)"; "B/C/D(paper)" ] in
  let paper_row = function
    | MD -> ("39.8MB", "1 / 1 / 2/3")
    | KMEANS -> ("69.2MB", "2 / 74 / 2/5")
    | BFS -> ("444.9MB", "1 / 10 / 2/3")
  in
  List.iter
    (fun kind ->
      let app = app_of kind scale in
      let program = Mgacc.parse_string ~name:(app.App_common.name ^ ".c") app.App_common.source in
      let plans = Mgacc.compile program in
      let loops_static = Program_plan.loop_count plans in
      let arrays =
        List.sort_uniq compare
          (List.concat_map
             (fun p -> List.map (fun c -> c.Array_config.array) p.Kernel_plan.configs)
             (Program_plan.all_plans plans))
      in
      let la_arrays =
        List.sort_uniq compare
          (List.concat_map
             (fun p ->
               List.filter_map
                 (fun c ->
                   if c.Array_config.localaccess <> None then Some c.Array_config.array else None)
                 p.Kernel_plan.configs)
             (Program_plan.all_plans plans))
      in
      let _, report = App_common.proposal (desktop 1) app in
      let mem = report.Report.mem_user_bytes + report.Report.mem_system_bytes in
      let pa, pbcd = paper_row kind in
      Table.add_row t
        [
          app_name kind;
          Bytesize.to_string mem;
          string_of_int loops_static;
          string_of_int report.Report.loops;
          Printf.sprintf "%d/%d" (List.length la_arrays) (List.length arrays);
          pa;
          pbcd;
        ])
    all_apps;
  Table.print t;
  print_newline ()

(* One table per platform: [headers] names its columns, [rows t c] adds
   the rows of each app collected on it. *)
let per_platform collected ~headers rows =
  List.iter
    (fun platform ->
      Printf.printf "\n-- %s --\n" platform.pname;
      let t = Table.create ~headers:(headers platform) in
      List.iter (fun c -> if c.platform = platform.pname then rows t c) collected;
      Table.print t)
    platforms

(* Figs. 8 and 9: one row per proposal run, [cols ~base r] normalized by
   [base] of the app's 1-GPU run. *)
let per_gpu_count collected ~headers ~base cols =
  per_platform collected
    ~headers:(fun _ -> "app" :: "GPUs" :: headers)
    (fun t c ->
      let base = match List.assoc_opt 1 c.proposals with Some r -> base r | None -> 1.0 in
      List.iter
        (fun (n, r) ->
          Table.add_row t
            (app_name c.kind :: string_of_int n
            :: List.map (Printf.sprintf "%.3f") (cols ~base r)))
        c.proposals;
      Table.add_separator t)

(* ------------------------------------------------------------------ *)
(* Fig. 7: relative performance normalized to OpenMP                   *)
(* ------------------------------------------------------------------ *)

let fig7 collected =
  print_endline "== Fig. 7: performance relative to OpenMP (higher is better) ==";
  per_platform collected
    ~headers:(fun platform ->
      [ "app"; "OpenMP"; "PGI(1)"; "CUDA(1)" ]
      @ List.map (fun n -> Printf.sprintf "Proposal(%d)" n) platform.gpu_counts)
    (fun t c ->
      let base = c.openmp.Report.total_time in
      let rel (r : Report.t) = Printf.sprintf "%.2f" (base /. r.Report.total_time) in
      Table.add_row t
        ([ app_name c.kind; "1.00"; rel c.pgi; rel c.cuda ] @ List.map (fun (_, r) -> rel r) c.proposals));
  print_endline
    "\npaper shapes: MD/KMEANS beat OpenMP and scale with GPUs (up to 6.75x desktop, 2.95x\n\
     supernode); Proposal(multi-GPU) beats CUDA(1); BFS gains little and can lose on the\n\
     supernode where inter-GPU communication dominates.\n"

(* ------------------------------------------------------------------ *)
(* Fig. 8: execution-time breakdown                                    *)
(* ------------------------------------------------------------------ *)

let fig8 collected =
  print_endline "== Fig. 8: execution-time breakdown, normalized to 1-GPU total ==";
  per_gpu_count collected
    ~headers:[ "KERNELS"; "CPU-GPU"; "GPU-GPU"; "total" ]
    ~base:(fun r -> r.Report.total_time)
    (fun ~base r ->
      List.map
        (fun v -> v /. base)
        [
          r.Report.kernel_time;
          r.Report.cpu_gpu_time;
          r.Report.gpu_gpu_time +. r.Report.overhead_time;
          r.Report.total_time;
        ]);
  print_endline
    "\npaper shapes: KERNELS shrinks with GPU count; CPU-GPU does not (host link saturates);\n\
     GPU-GPU is zero for MD, small for KMEANS, and dominant for BFS on multiple GPUs.\n"

(* ------------------------------------------------------------------ *)
(* Fig. 9: device memory usage                                         *)
(* ------------------------------------------------------------------ *)

let fig9 collected =
  print_endline "== Fig. 9: device memory usage, normalized to 1-GPU user total ==";
  per_gpu_count collected ~headers:[ "User"; "System"; "total" ]
    ~base:(fun r -> float_of_int r.Report.mem_user_bytes)
    (fun ~base r ->
      let u = float_of_int r.Report.mem_user_bytes /. base in
      let s = float_of_int r.Report.mem_system_bytes /. base in
      [ u; s; u +. s ]);
  print_endline
    "\npaper shapes: User memory grows only mildly with GPU count (distribution policy);\n\
     System overhead is largest for BFS but stays under ~30%.\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* Ablations A and B: BFS on 2 desktop GPUs under each (label, two-level
   dirty bits, chunk size). *)
let dirty_bit_table scale first settings =
  let app = app_of BFS scale in
  let t = Table.create ~headers:[ first; "GPU-GPU bytes"; "GPU-GPU time"; "total time" ] in
  List.iter
    (fun (label, two_level, chunk) ->
      let config =
        Rt_config.make ~two_level_dirty:two_level ~chunk_bytes:chunk ~num_gpus:2 (Machine.desktop ())
      in
      let _, r = App_common.proposal config app in
      Table.add_row t
        [
          label;
          Bytesize.to_string r.Report.gpu_gpu_bytes;
          Printf.sprintf "%.6fs" r.Report.gpu_gpu_time;
          Printf.sprintf "%.6fs" r.Report.total_time;
        ])
    settings;
  Table.print t;
  print_newline ()

let chunk_sweep scale =
  Printf.printf "== Ablation A: dirty-bit chunk size (BFS, 2 GPUs, scale: %s) ==\n"
    (scale_name scale);
  print_endline "(the paper picks 1MB experimentally, §IV-D-1)\n";
  dirty_bit_table scale "chunk"
    (List.map
       (fun chunk -> (Bytesize.to_string chunk, true, chunk))
       [ 4 * 1024; 64 * 1024; 256 * 1024; 1024 * 1024; 4 * 1024 * 1024 ])

let dirty_levels scale =
  Printf.printf "== Ablation B: one- vs two-level dirty bits (BFS, 2 GPUs, scale: %s) ==\n"
    (scale_name scale);
  print_endline
    "(the chunk must be smaller than the array for the second level to matter;\n\
     at paper scale the 444MB levels array dwarfs the 1MB chunk)\n";
  dirty_bit_table scale "mechanism"
    [
      ("single-level", false, 1024 * 1024);
      ("two-level (16KB chunks)", true, 16 * 1024);
      ("two-level (64KB chunks)", true, 64 * 1024);
    ]

let policy scale =
  Printf.printf
    "== Ablation C: replica vs distribution placement (localaccess honored or not, 2 GPUs, scale: %s) ==\n"
    (scale_name scale);
  let t =
    Table.create
      ~headers:[ "app"; "policy"; "User mem"; "System mem"; "CPU-GPU bytes"; "GPU-GPU bytes"; "total" ]
  in
  List.iter
    (fun kind ->
      let app = app_of kind scale in
      List.iter
        (fun (label, options) ->
          let _, r = App_common.proposal { (desktop 2) with Rt_config.translator = options } app in
          Table.add_row t
            [
              app_name kind;
              label;
              Bytesize.to_string r.Report.mem_user_bytes;
              Bytesize.to_string r.Report.mem_system_bytes;
              Bytesize.to_string r.Report.cpu_gpu_bytes;
              Bytesize.to_string r.Report.gpu_gpu_bytes;
              Printf.sprintf "%.6fs" r.Report.total_time;
            ])
        [
          ("distribution", Kernel_plan.default_options);
          ( "replica-only",
            {
              Kernel_plan.default_options with
              enable_distribution = false;
              enable_miss_check_elim = false;
            } );
        ];
      Table.add_separator t)
    all_apps;
  Table.print t;
  print_newline ()

let misscheck scale =
  Printf.printf
    "== Ablation D: write-miss check elimination (§IV-D-2) (MD, 2 GPUs, scale: %s) ==\n"
    (scale_name scale);
  let app = app_of MD scale in
  let t =
    Table.create ~headers:[ "miss checks"; "KERNELS time"; "total time"; "System mem" ]
  in
  List.iter
    (fun (label, elim) ->
      let options = { Kernel_plan.default_options with Kernel_plan.enable_miss_check_elim = elim } in
      let _, r = App_common.proposal { (desktop 2) with Rt_config.translator = options } app in
      Table.add_row t
        [
          label;
          Printf.sprintf "%.6fs" r.Report.kernel_time;
          Printf.sprintf "%.6fs" r.Report.total_time;
          Bytesize.to_string r.Report.mem_system_bytes;
        ])
    [ ("eliminated (proven in-window)", true); ("checked on every write", false) ];
  Table.print t;
  print_endline
    "(MD is memory-bound, so the per-write ownership check hides under memory time;\n\
     elimination's benefit here is dropping the miss machinery entirely)\n"

let layout scale =
  Printf.printf "== Ablation E: coalescing layout transform (KMEANS, 1 GPU, scale: %s) ==\n"
    (scale_name scale);
  let app = app_of KMEANS scale in
  let t = Table.create ~headers:[ "layout transform"; "KERNELS time"; "total time" ] in
  List.iter
    (fun (label, lt) ->
      let options = { Kernel_plan.default_options with Kernel_plan.enable_layout_transform = lt } in
      let _, r = App_common.proposal { (desktop 1) with Rt_config.translator = options } app in
      Table.add_row t
        [ label; Printf.sprintf "%.6fs" r.Report.kernel_time; Printf.sprintf "%.6fs" r.Report.total_time ])
    [ ("on (transposed reads coalesce)", true); ("off (strided reads)", false) ];
  Table.print t;
  print_newline ()

let extended scale =
  Printf.printf
    "== Extended applications: the communication spectrum (2 GPUs, desktop, scale: %s) ==\n"
    (scale_name scale);
  print_endline
    "(SPMV and Monte Carlo are drawn from the paper's motivating application\n\
     classes — linear algebra and monte carlo simulations — beyond its own trio)\n";
  let apps =
    [
      ("montecarlo", Montecarlo.app Montecarlo.default_params);
      ("md", app_of MD scale);
      ("kmeans", app_of KMEANS scale);
      ("spmv", Spmv.app Spmv.default_params);
      ("bfs", app_of BFS scale);
    ]
  in
  let t =
    Table.create
      ~headers:[ "app"; "vs OpenMP (1 GPU)"; "vs OpenMP (2 GPUs)"; "GPU-GPU bytes"; "CPU-GPU bytes" ]
  in
  List.iter
    (fun (name, app) ->
      let _, omp = App_common.openmp ~machine:(Machine.desktop ()) app in
      let _, p1 = App_common.proposal (desktop 1) app in
      let _, p2 = App_common.proposal (desktop 2) app in
      Table.add_row t
        [
          name;
          Printf.sprintf "%.2f" (Report.speedup_vs p1 ~baseline:omp);
          Printf.sprintf "%.2f" (Report.speedup_vs p2 ~baseline:omp);
          Bytesize.to_string p2.Report.gpu_gpu_bytes;
          Bytesize.to_string p2.Report.cpu_gpu_bytes;
        ])
    apps;
  Table.print t;
  print_endline
    "\nshape: reconciliation traffic orders the apps (monte carlo ~ md < kmeans < spmv < bfs),\n\
     and multi-GPU benefit decreases along the same axis.\n"

let expert scale =
  Printf.printf
    "== Runtime overhead vs hand-written multi-GPU CUDA (MD, desktop, scale: %s) ==\n"
    (scale_name scale);
  print_endline
    "(the expert manually replicates positions, splits neighbor/force blocks and\n\
     overlaps transfers — everything the proposed runtime automates; paper §II-B)\n";
  let p = md_params scale in
  let t = Table.create ~headers:[ "variant"; "total"; "KERNELS"; "CPU-GPU"; "overhead vs expert" ] in
  List.iter
    (fun gpus ->
      let _, e = Md.run_cuda_multi ~machine:(Machine.desktop ()) ~gpus p in
      let _, pr = App_common.proposal (desktop gpus) (Md.app p) in
      Table.add_row t
        [
          Printf.sprintf "cuda-multi(%d)" gpus;
          Printf.sprintf "%.6fs" e.Report.total_time;
          Printf.sprintf "%.6fs" e.Report.kernel_time;
          Printf.sprintf "%.6fs" e.Report.cpu_gpu_time;
          "—";
        ];
      Table.add_row t
        [
          Printf.sprintf "proposal(%d)" gpus;
          Printf.sprintf "%.6fs" pr.Report.total_time;
          Printf.sprintf "%.6fs" pr.Report.kernel_time;
          Printf.sprintf "%.6fs" pr.Report.cpu_gpu_time;
          Printf.sprintf "%+.1f%%" (100.0 *. (pr.Report.total_time /. e.Report.total_time -. 1.0));
        ];
      Table.add_separator t)
    [ 1; 2 ];
  Table.print t;
  print_newline ()

let balance ~smoke =
  Printf.printf "== Scheduler balance study (Mixed Desktop: C2075 + M2050%s) ==\n"
    (if smoke then "; smoke inputs" else "");
  print_endline
    "(equal split vs roofline-proportional seed vs adaptive feedback; every run is\n\
     checked against the sequential reference — see docs/SCHEDULING.md)\n";
  Balance_study.print (Balance_study.run ~smoke ());
  print_endline
    "\nshape: the C2075 earns the larger share, shrinking per-launch imbalance and total\n\
     kernel time for the uniform apps (md, kmeans); bfs is irregular, so adaptive starts\n\
     from the equal split and re-splits only when the predicted gain beats the movement cost.\n"

let contention () =
  print_endline "== PCIe contention: why CPU-GPU time does not divide by GPU count ==";
  print_endline
    "(a pure-load program on the supercomputer node: each GPU loads its block of a\n\
     distributed array concurrently, but the host root complex caps the sum of rates)\n";
  let src =
    {|void main() {
        int n = 6000000; double a[n]; int i;
        for (i = 0; i < n; i++) { a[i] = 1.0; }
        #pragma acc parallel loop localaccess(a: stride(1))
        for (i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
      }|}
  in
  let program = Mgacc.parse_string ~name:"load.c" src in
  let t = Table.create ~headers:[ "GPUs"; "bytes loaded"; "CPU-GPU time"; "speedup vs 1 GPU" ] in
  let base = ref 0.0 in
  List.iter
    (fun gpus ->
      let config = Rt_config.make ~num_gpus:gpus (Machine.supernode ()) in
      let _, r = Mgacc.run_acc ~config program in
      if gpus = 1 then base := r.Report.cpu_gpu_time;
      Table.add_row t
        [
          string_of_int gpus;
          Bytesize.to_string r.Report.cpu_gpu_bytes;
          Printf.sprintf "%.6fs" r.Report.cpu_gpu_time;
          Printf.sprintf "%.2fx" (!base /. r.Report.cpu_gpu_time);
        ])
    [ 1; 2; 3 ];
  Table.print t;
  print_endline
    "\n(3 links x 5.6GB/s would be 16.8GB/s, but the 12GB/s host aggregate caps the\n\
     concurrent rate — the effect behind the paper's Fig. 8 CPU-GPU plateau)\n"

let cluster scale =
  Printf.printf
    "== Cluster scaling (paper §VI future work, implemented; scale: %s) ==\n" (scale_name scale);
  print_endline
    "(desktop-class nodes of 2x C2075 linked by a 3.2GB/s QDR-class network; inter-node\n\
     peer traffic stages through both hosts and the wire)\n";
  let shapes = [ (1, 2); (2, 1); (2, 2) ] in
  let t =
    Table.create
      ~headers:[ "app"; "nodes x gpus"; "total"; "vs 1x2"; "GPU-GPU time"; "GPU-GPU bytes" ]
  in
  List.iter
    (fun kind ->
      let app = app_of kind scale in
      let base = ref 0.0 in
      List.iter
        (fun (nodes, gpn) ->
          let config = Rt_config.make (Machine.cluster ~nodes ~gpus_per_node:gpn ()) in
          let _, r =
            Mgacc.run_acc ~config
              (Mgacc.parse_string ~name:(app_name kind) app.App_common.source)
          in
          if !base = 0.0 then base := r.Report.total_time;
          Table.add_row t
            [
              app_name kind;
              Printf.sprintf "%dx%d (%d GPUs)" nodes gpn (nodes * gpn);
              Printf.sprintf "%.6fs" r.Report.total_time;
              Printf.sprintf "%.2fx" (!base /. r.Report.total_time);
              Printf.sprintf "%.6fs" r.Report.gpu_gpu_time;
              Bytesize.to_string r.Report.gpu_gpu_bytes;
            ])
        shapes;
      Table.add_separator t)
    all_apps;
  Table.print t;
  print_endline
    "\nshape: MD keeps scaling across nodes (no reconciliation); BFS loses more to the\n\
     wire than it gains from the extra GPUs — the paper's caution about clusters.\n"

(* MD and BFS at the paper's exact input sizes (desktop machine). KMEANS at
   kddcup scale needs hours of interpreted execution and is excluded; see
   EXPERIMENTS.md. Takes ~15 minutes of wall clock. *)
let paper_validate () =
  print_endline "== Paper-scale validation (desktop; see EXPERIMENTS.md for recorded runs) ==";
  let report label (r : Report.t) base =
    Printf.printf
      "  %-14s total %.4fs (x%.2f vs openmp)  kern %.4fs  cpu-gpu %.4fs  gpu-gpu %.4fs  mem %s+%s\n%!"
      label r.Report.total_time (base /. r.Report.total_time) r.Report.kernel_time
      r.Report.cpu_gpu_time r.Report.gpu_gpu_time
      (Bytesize.to_string r.Report.mem_user_bytes)
      (Bytesize.to_string r.Report.mem_system_bytes)
  in
  List.iter
    (fun kind ->
      let app = app_of kind Paper in
      Printf.printf "-- %s (paper input; paper reports: md 6.75x max desktop, 39.8MB; bfs 444.9MB) --\n%!"
        (app_name kind);
      let _, omp = App_common.openmp ~machine:(Machine.desktop ()) app in
      report "openmp(12)" omp omp.Report.total_time;
      let cuda = run_cuda kind Paper (Machine.desktop ()) in
      report "cuda(1)" cuda omp.Report.total_time;
      List.iter
        (fun g ->
          let _, r = App_common.proposal (desktop g) app in
          report (Printf.sprintf "proposal(%d)" g) r omp.Report.total_time)
        [ 1; 2 ])
    [ MD; BFS ]


(* ------------------------------------------------------------------ *)
(* Fleet: multi-tenant job scheduling over a shared simulated cluster  *)
(* ------------------------------------------------------------------ *)

(* A burst of mixed jobs (all submitted within microseconds) on the
   4-GPU cluster, replayed under each admission policy with a shared
   compile-once plan cache. The warmup pass primes the cache's measured
   durations (feeding SJF) and footprints (feeding the admission
   ledger); the budget is then squeezed to 2x the largest footprint so
   warm pools actually evict and spill. *)
let fleet_bench scale ~smoke =
  Printf.printf "== Fleet: FIFO vs SJF vs fair-share on the shared cluster (scale: %s%s) ==\n"
    (scale_name scale)
    (if smoke then "; smoke" else "");
  print_endline
    "(jobs run as re-entrant sessions on one shared machine; admission is gated by a\n\
     device-memory ledger with warm-pool eviction/spill; see docs/FLEET.md.)\n";
  let sources =
    [
      ("md", (app_of MD scale).App_common.source);
      ("kmeans", (app_of KMEANS scale).App_common.source);
      ("bfs", (app_of BFS scale).App_common.source);
      ("spmv", (Spmv.app Spmv.default_params).App_common.source);
      ("montecarlo", (Montecarlo.app Montecarlo.default_params).App_common.source);
    ]
  in
  let tenants = [| "alice"; "bob"; "carol"; "dave" |] in
  let job_count = if smoke then 3 else 20 in
  let jobs =
    List.init job_count (fun i ->
        let name, source = List.nth sources (i mod List.length sources) in
        Mgacc.Fleet_job.make ~id:i ~tenant:tenants.(i mod Array.length tenants) ~name ~source
          ~submit:(1e-6 *. float_of_int i))
  in
  let fresh () = Machine.cluster ~nodes:2 ~gpus_per_node:2 () in
  let cache = Mgacc.Plan_cache.create () in
  (* Warmup: one solo run per distinct program primes measured durations
     and device footprints in the shared cache. *)
  List.iter
    (fun (name, source) ->
      progress "  [fleet] warmup %s..." name;
      let config = Mgacc.Fleet.configure ~policy:Mgacc.Fleet.Fifo ~keep_warm:true (fresh ()) in
      ignore
        (Mgacc.Fleet.run ~cache config
           [ Mgacc.Fleet_job.make ~id:0 ~tenant:"warmup" ~name ~source ~submit:0.0 ]))
    sources;
  let max_footprint =
    let probe = Mgacc.Fleet.configure (fresh ()) in
    List.fold_left
      (fun acc (name, source) ->
        let entry, _ = Mgacc.Fleet.lookup probe cache ~name source in
        max acc (Option.value ~default:(16 * 1024 * 1024) entry.Mgacc.Plan_cache.footprint_bytes))
      1 sources
  in
  let budget = 2 * max_footprint in
  let t =
    Table.create
      ~headers:
        [ "policy"; "mean wait"; "p95 latency"; "throughput"; "makespan"; "fairness"; "cache";
          "evict"; "spilled" ]
  in
  let stats =
    List.map
    (fun policy ->
      progress "  [fleet] %d jobs under %s..." job_count (Mgacc.Fleet.policy_name policy);
      let config =
        Mgacc.Fleet.configure ~policy ~mem_budget:budget ~keep_warm:true
          ~watchdog_seconds:3600.0 (fresh ())
      in
      let outcome = Mgacc.Fleet.run ~cache config jobs in
      let s = outcome.Mgacc.Fleet.stats in
      Table.add_row t
        [
          Mgacc.Fleet.policy_name policy;
          Printf.sprintf "%.6fs" s.Mgacc.Fleet.mean_wait;
          Printf.sprintf "%.6fs" s.Mgacc.Fleet.p95_latency;
          Printf.sprintf "%.2f jobs/s" s.Mgacc.Fleet.throughput;
          Printf.sprintf "%.6fs" s.Mgacc.Fleet.makespan;
          Printf.sprintf "%.3f" s.Mgacc.Fleet.fairness;
          Printf.sprintf "%d/%d" s.Mgacc.Fleet.cache_hits
            (s.Mgacc.Fleet.cache_hits + s.Mgacc.Fleet.cache_misses);
          string_of_int s.Mgacc.Fleet.evictions;
          Mgacc_util.Bytesize.to_string s.Mgacc.Fleet.spilled_bytes;
        ];
      s)
    [ Mgacc.Fleet.Fifo; Mgacc.Fleet.Sjf; Mgacc.Fleet.Fair ]
  in
  Table.print t;
  write_artifact ~scale:(scale, Small) ~smoke "BENCH_fleet.json"
    Json.(
      Obj
        [
          ("scale", Str (scale_name scale));
          ("flags", Obj [ ("policy", Str "fifo-vs-sjf-vs-fair"); ("keep_warm", Bool true) ]);
          ("machine", Str "cluster");
          ("gpus", int 4);
          ("job_count", int job_count);
          ("mem_budget_bytes", int budget);
          (* The library's own serialization of each policy's stats. *)
          ("policies", Arr (List.map (fun s -> of_string (Mgacc.Fleet.stats_to_json s)) stats));
        ]);
  print_endline
    "shape: the burst arrives long-and-short interleaved, so FIFO makes short jobs queue\n\
     behind long ones; SJF reorders the backlog shortest-first and wins on mean wait at\n\
     equal throughput (same work, same machine). Fair-share interleaves tenants by\n\
     accumulated service, trading a little mean wait for a flatter slowdown spread.\n"


(* ------------------------------------------------------------------ *)
(* bench sim: fabric event-loop microbenchmark                         *)
(* ------------------------------------------------------------------ *)

(* Synthetic transfer storm on a 64-GPU cluster (16 nodes x 4 GPUs), the
   scale where the from-scratch allocator's per-event rebuild dominates.
   Requests arrive in waves and mix every direction the fabric models:
   H2d, D2h, same-node peer and cross-node peer. Deterministic LCG so
   every run (and both allocators) sees the same storm. *)
let sim_storm fabric ~flows ~waves ~seed =
  let topo =
    match Fabric.topology fabric with
    | Some t -> t
    | None -> invalid_arg "sim_storm: fabric has no topology"
  in
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
            (* same-node peer: g and a distinct neighbor on its node *)
            let node = g / gpn in
            let p = (node * gpn) + ((g mod gpn) + 1 + rand (gpn - 1)) mod gpn in
            Fabric.P2p (g, p)
        | _ ->
            (* cross-node peer *)
            let dst_node = ((g / gpn) + 1 + rand (Int.max 1 (nodes - 1))) mod nodes in
            Fabric.P2p (g, (dst_node * gpn) + rand gpn)
      in
      let bytes = 1_000_000 + rand 32_000_000 in
      { Fabric.direction; bytes; ready; tag = "storm" })

(* Koka-artifact-style timing: N iterations, median and the spread
   (largest deviation from the median), wall clock. *)
let sim_time_runs ~iters f =
  let times =
    Array.init iters (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0)
  in
  Array.sort compare times;
  let median = times.(iters / 2) in
  let spread = Float.max (median -. times.(0)) (times.(iters - 1) -. median) in
  (median, spread)

(* Bar the artifact must clear on regeneration: the incremental
   allocator's throughput at the 64-GPU storm. Calibrated between the
   reference allocator's measured throughput (~195 events/s) and the
   incremental path's (~2400 events/s): a revert to per-event rebuilds
   fails the bar, while machines ~5x slower than the dev box still
   pass. The test suite asserts both this floor and the >= 10x speedup
   from the committed BENCH_sim.json; a live relative gate in
   test_gpusim catches reverts independently of machine speed. *)
let sim_floor_events_per_second = 500.0

let sim_bench ~smoke =
  let nodes = if smoke then 2 else 16 in
  let gpus_per_node = 4 in
  let flows = if smoke then 300 else 4000 in
  let waves = if smoke then 6 else 40 in
  let iters = if smoke then 3 else 9 in
  Printf.printf "== bench sim: fabric event loop, %d GPUs (%d nodes x %d), %d-flow storm%s ==\n"
    (nodes * gpus_per_node) nodes gpus_per_node flows
    (if smoke then "; smoke" else "");
  print_endline
    "(incremental allocator vs from-scratch reference on the same synthetic transfer storm;\n\
     see docs/PERF.md for the event-loop invariants and methodology.)\n";
  let machine = Machine.cluster ~nodes ~gpus_per_node () in
  let fabric = machine.Machine.fabric in
  let reqs = sim_storm fabric ~flows ~waves ~seed:20260807 in
  (* Guard before timing anything: both allocators must agree bit for bit
     on this storm, else the speedup compares different simulations. *)
  progress "  [sim] equivalence check (%d flows)..." flows;
  let fast = Fabric.run_batch fabric reqs in
  let slow = Fabric.run_batch_reference fabric reqs in
  List.iter2
    (fun (a : Fabric.completion) (b : Fabric.completion) ->
      if not (Float.equal a.Fabric.start b.Fabric.start && Float.equal a.Fabric.finish b.Fabric.finish)
      then failwith "bench sim: incremental and reference allocators diverged")
    fast slow;
  (* Every request is one arrival plus one completion. *)
  let events = 2 * flows in
  let measure name run =
    progress "  [sim] timing %s allocator (%d iterations)..." name iters;
    let median, spread = sim_time_runs ~iters (fun () -> ignore (run fabric reqs)) in
    (median, spread, float_of_int events /. median)
  in
  let ref_median, ref_spread, ref_eps = measure "reference" Fabric.run_batch_reference in
  let inc_median, inc_spread, inc_eps = measure "incremental" Fabric.run_batch in
  let speedup = ref_median /. inc_median in
  let t =
    Table.create ~headers:[ "allocator"; "iters"; "median"; "spread"; "events/s"; "vs reference" ]
  in
  Table.add_row t
    [
      "reference"; string_of_int iters;
      Printf.sprintf "%.4fs" ref_median;
      Printf.sprintf "~%.4fs" ref_spread;
      Printf.sprintf "%.0f" ref_eps;
      "1.00x";
    ];
  Table.add_row t
    [
      "incremental"; string_of_int iters;
      Printf.sprintf "%.4fs" inc_median;
      Printf.sprintf "~%.4fs" inc_spread;
      Printf.sprintf "%.0f" inc_eps;
      Printf.sprintf "%.2fx" speedup;
    ];
  Table.print t;
  let side median spread eps =
    Json.(
      Obj [ ("median_seconds", Num median); ("spread_seconds", Num spread); ("events_per_second", Num eps) ])
  in
  write_artifact ~smoke "BENCH_sim.json"
    Json.(
      Obj
        [
          ( "flags",
            Obj [ ("allocator", Str "incremental-vs-reference"); ("storm", Str "h2d-d2h-p2p-mixed") ] );
          ("machine", Str "cluster");
          ("nodes", int nodes);
          ("gpus_per_node", int gpus_per_node);
          ("gpus", int (nodes * gpus_per_node));
          ("flows", int flows);
          ("waves", int waves);
          ("events", int events);
          ("iterations", int iters);
          ("reference", side ref_median ref_spread ref_eps);
          ("incremental", side inc_median inc_spread inc_eps);
          ("speedup", Num speedup);
          ("floor_events_per_second", Num sim_floor_events_per_second);
        ]);
  Printf.printf
    "shape: the reference allocator rebuilds hashtable water-filling state on every\n\
     arrival/completion event, so per-event cost grows with active flows x resources;\n\
     the incremental allocator keeps per-resource counts alive across events, water-fills\n\
     over flat arrays, and skips the refill entirely when an event touches only idle\n\
     resources. Throughput floor for CI: %.0f events/s.\n"
    sim_floor_events_per_second


(* ------------------------------------------------------------------ *)
(* Mode sweeps: overlap, coherence, fusion, collectives, scale-out      *)
(* ------------------------------------------------------------------ *)

(* A sweep cell: one app on one machine under one configuration.
   [machine] is the label its row carries. *)
type cell = { app : App_common.t; machine : string; config : Rt_config.t }

(* A mode comparison: its cells, the prose around its table, and the
   scale its artifact is tracked at. *)
type sweep = { title : string; note : string; cells : cell list; shape : string; tracked_at : scale }

(* Every combination of the given switch settings, the first switch
   outermost: [modes [ ("a", [ "x"; "y" ]); ("b", [ "u" ]) ]] is
   [[ [ ("a", "x"); ("b", "u") ]; [ ("a", "y"); ("b", "u") ] ]]. *)
let rec modes = function
  | [] -> [ [] ]
  | (name, values) :: rest ->
      List.concat_map (fun v -> List.map (fun m -> (name, v) :: m) (modes rest)) values

(* The cells of apps x machines x settings, nested in that order; a
   machine is (label, fresh machine, GPUs used). *)
let cells apps machines settings =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun (machine, fresh, gpus) ->
          List.map
            (fun modes ->
              let config = Rt_config.make ~num_gpus:gpus (fresh ()) in
              let config = List.fold_left (fun cfg (name, v) -> set_mode cfg name v) config modes in
              { app; machine; config })
            settings)
        machines)
    apps

let spellings config =
  List.map (fun (s : Rt_config.switch) -> s.Rt_config.read config) Rt_config.switches

(* Run each distinct cell once, check every run against the sequential
   oracle and print one table. A wrong answer stops the bench (exit 1,
   naming each mismatched cell) before any artifact is written; else the
   rows go to BENCH_<target>.json: app, machine, GPUs, every mode switch
   by its spelling, the [Report.metrics], and [results_match]. *)
let run_sweep scale ~smoke target sw =
  let artifact = "BENCH_" ^ target ^ ".json" in
  Printf.printf "== %s (scale: %s%s) ==\n" sw.title (scale_name scale) (if smoke then "; smoke" else "");
  print_endline sw.note;
  let key c = (c.app.App_common.source, c.machine, c.config.Rt_config.num_gpus, spellings c.config) in
  let cells =
    List.rev
      (List.fold_left
         (fun seen c -> if List.exists (fun d -> key d = key c) seen then seen else c :: seen)
         [] sw.cells)
  in
  let label c =
    Printf.sprintf "%s on %s(%d) %s" c.app.App_common.name c.machine c.config.Rt_config.num_gpus
      (String.concat "/" (spellings c.config))
  in
  let apps = List.sort_uniq compare (List.map (fun c -> c.app) cells) in
  let oracles = List.map (fun (app : App_common.t) -> (app.source, App_common.sequential app)) apps in
  let runs =
    List.map
      (fun c ->
        progress "  [%s] %s..." target (label c);
        let env, report = App_common.proposal c.config c.app in
        (c, report, App_common.verify c.app ~against:(List.assoc c.app.source oracles) env))
      cells
  in
  (* The switches this sweep varies get a column each. *)
  let varying =
    List.filter
      (fun (s : Rt_config.switch) ->
        List.exists (fun c -> s.Rt_config.read c.config <> s.Rt_config.read (List.hd cells).config) cells)
      Rt_config.switches
  in
  let t =
    Table.create
      ~headers:
        ([ "app"; "machine" ]
        @ List.map (fun (s : Rt_config.switch) -> s.Rt_config.name) varying
        @ [ "time"; "GPU-GPU"; "coh"; "wire"; "hidden"; "prefetch"; "fused/contr"; "rings/hier"; "check" ])
  in
  List.iter
    (fun (c, (r : Report.t), verdict) ->
      Table.add_row t
        ([ c.app.App_common.name; Printf.sprintf "%s(%d)" c.machine c.config.Rt_config.num_gpus ]
        @ List.map (fun (s : Rt_config.switch) -> s.Rt_config.read c.config) varying
        @ [
            Printf.sprintf "%.6fs" r.Report.total_time;
            Bytesize.to_string r.Report.gpu_gpu_bytes;
            Bytesize.to_string (r.Report.coh_shipped_bytes + r.Report.coh_pulled_bytes);
            Bytesize.to_string r.Report.wire_bytes;
            Printf.sprintf "%.6fs" r.Report.hidden_seconds;
            string_of_int r.Report.prefetch_hits;
            Printf.sprintf "%d/%d" r.Report.fused_kernels r.Report.contracted_arrays;
            Printf.sprintf "%d/%d" r.Report.collective_rings r.Report.collective_hierarchies;
            (if verdict = Ok () then "ok" else "MISMATCH");
          ]))
    runs;
  Table.print t;
  let mismatches =
    List.filter_map
      (fun (c, _, verdict) ->
        Result.fold ~ok:(fun () -> None) ~error:(fun e -> Some (label c ^ ": " ^ e)) verdict)
      runs
  in
  if mismatches <> [] then begin
    prerr_endline
      ("bench: results diverged from the sequential reference, no " ^ artifact ^ " written:\n  "
     ^ String.concat "\n  " mismatches);
    exit 1
  end;
  let row (c, r, _) =
    Json.(
      Obj
        ([ ("app", Str c.app.App_common.name); ("machine", Str c.machine) ]
        @ [ ("gpus", int c.config.num_gpus) ]
        @ List.map (fun (s : Rt_config.switch) -> (s.name, Str (s.read c.config))) Rt_config.switches
        @ List.map (fun (key, metric) -> (key, Num (metric r))) Report.metrics
        @ [ ("results_match", Bool true) (* a mismatch exited above *) ]))
  in
  write_artifact ~scale:(scale, sw.tracked_at) ~smoke artifact
    Json.(Obj [ ("scale", Str (scale_name scale)); ("runs", Arr (List.map row runs)) ]);
  print_endline sw.shape

(* Sweep machines: (label, fresh machine, GPUs used). *)
let desktop_m = ("desktop", (fun () -> Machine.desktop ()), 2)
let desktop_mixed_m = ("desktop-mixed", (fun () -> Machine.desktop_mixed ()), 2)
let supernode_m = ("supernode", (fun () -> Machine.supernode ()), 3)
let cluster_m = ("cluster", (fun () -> Machine.cluster ~nodes:2 ~gpus_per_node:2 ()), 4)

let five_apps scale =
  List.map (fun kind -> app_of kind scale) all_apps
  @ [ Spmv.app Spmv.default_params; Montecarlo.app Montecarlo.default_params ]

(* jacobi: a 2-D stencil with an inner parallel column loop, so it is
   2-D eligible. *)
let jacobi_scale_app ~rows ~cols ~iters =
  {
    App_common.name = "jacobi";
    source =
      Printf.sprintf
        {|void main() {
            int rows = %d; int cols = %d; int iters = %d; int it; int r; int c;
            double u[rows][cols];
            double v[rows][cols];
            for (r = 0; r < rows; r++) { for (c = 0; c < cols; c++) { u[r][c] = 1.0 * ((r * 13 + c * 7) %% 19); v[r][c] = u[r][c]; } }
            #pragma acc data copy(u[0:rows*cols]) copy(v[0:rows*cols])
            {
              for (it = 0; it < iters; it++) {
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
        rows cols iters;
    result_arrays = [ "u"; "v" ];
  }


(* The five mode comparisons, by target name. Every cell is checked
   against the sequential reference: a mode may change traffic and
   timings, never results. *)
let sweep scale ~smoke = function
  | "overlap" ->
      {
        title = "Overlap engine: barrier vs dependency-driven";
        note =
          "(--overlap on gates every transfer/replay on its own producer's events instead of\n\
           phase barriers; see docs/OVERLAP.md. 'hidden' is activity off the critical path.)\n";
        cells =
          cells (five_apps scale)
            (if smoke then [ desktop_m ] else [ desktop_m; desktop_mixed_m; supernode_m ])
            (modes [ ("overlap", [ "off"; "on" ]) ]);
        shape =
          "shape: bfs (dirty-chunk reconciliation + irregular per-launch imbalance) gains the\n\
           most — the slow GPU's exchange streams while the fast one proceeds. kmeans can lose\n\
           slightly: the barrier model optimistically charged reduction broadcasts concurrently\n\
           with the gathers they depend on; the DAG serializes gather -> combine -> bcast.\n";
        tracked_at = Small;
      }
  | "coherence" ->
      let machines = if smoke then [ cluster_m ] else [ desktop_m; supernode_m; cluster_m ] in
      {
        title = "Coherence: eager vs demand-driven lazy";
        note =
          "(--coherence lazy ships a writer's dirty intervals only to GPUs whose next read\n\
           window covers them; unread data stays stale and is pulled on demand. See\n\
           docs/COHERENCE.md. 'coh' is shipped plus pulled replica/reduction traffic. kmeans\n\
           also runs lazy under the overlap engine, whose broadcast rounds must not lose to\n\
           barriers.)\n";
        cells =
          cells (five_apps scale) machines (modes [ ("coherence", [ "eager"; "lazy" ]) ])
          @ cells [ app_of KMEANS scale ] machines
              (modes [ ("coherence", [ "lazy" ]); ("overlap", [ "off"; "on" ]) ]);
        shape =
          "shape: kmeans cuts the most — reduction results fan out as per-GPU windows instead of\n\
           whole-array broadcasts, and self-reads elide the rest. spmv ships one contiguous run\n\
           per destination instead of padded dirty chunks; bfs ships sparse frontier runs. md and\n\
           montecarlo reconcile distributed/private data and are unchanged by design.\n";
        tracked_at = Default;
      }
  | "fusion" ->
      {
        title = "Fusion: --fuse off vs on";
        note =
          "(fusion-friendly md/kmeans variants: chains of adjacent clause-free parallel loops\n\
           with create temporaries that die inside the fused group; contracted temporaries stop\n\
           generating coherence traffic. bfs is the control the pass must leave untouched.)\n";
        cells =
          cells
            [
              Fusionable.md Fusionable.default_md;
              Fusionable.kmeans Fusionable.default_kmeans;
              app_of BFS scale;
            ]
            (if smoke then [ cluster_m ] else [ desktop_m; cluster_m ])
            (modes [ ("fuse", [ "off"; "on" ]) ]);
        shape =
          "shape: md fuses its three velocity-Verlet loops into one kernel and contracts the\n\
           acceleration temporary outright; kmeans fuses assignment with membership, contracts\n\
           both per-point temporaries and repacks the strided point matrix once. bfs has no\n\
           adjacent compatible loops and its two rows must be equal on every metric.\n";
        tracked_at = Default;
      }
  | "collective" ->
      {
        title = "Collectives: direct vs topology-aware auto";
        note =
          "(--collective auto lowers replicated-array reconciliation and reduction broadcasts\n\
           into ring or hierarchical schedules with segment pipelining when the cost model\n\
           says they beat the star; see docs/MODEL.md 'Collectives'. 'wire' is the inter-node\n\
           subset of GPU-GPU traffic.)\n";
        cells =
          cells (five_apps scale)
            (if smoke then [ cluster_m ] else [ desktop_m; supernode_m; cluster_m ])
            (modes [ ("coherence", [ "eager"; "lazy" ]); ("collective", [ "direct"; "auto" ]) ]);
        shape =
          "shape: the wins concentrate on the 4-GPU cluster and the replica-heavy apps (kmeans,\n\
           spmv, bfs): a ring or hierarchical schedule crosses the 3.2GB/s wire once per node\n\
           instead of once per remote destination. md and montecarlo reconcile little or nothing\n\
           and stay direct under the cost model; single-node machines gain only pipelining.\n";
        tracked_at = Default;
      }
  | "scale" ->
      let rows, cols, iters, spmv_rows, spmv_width, spmv_iters =
        if smoke then (32, 24, 2, 256, 6, 2)
        else
          match scale with
          | Small -> (96, 96, 2, 1024, 8, 2)
          | Default | Paper -> (192, 192, 3, 4096, 8, 3)
      in
      let machine spec_str =
        match Machine.spec_of_string spec_str with
        | Ok spec -> (spec_str, (fun () -> Machine.of_spec spec), Machine.spec_gpus spec)
        | Error e -> failwith e
      in
      {
        title = "bench scale: 1-D vs 2-D decomposition, direct vs ring, 4 to 64 GPUs";
        note =
          "(machines built from --machine specs; 2-D tiles the stencil over a sqrt(P)-ish GPU\n\
           grid so halo traffic follows the tile perimeter; ring collectives cross each\n\
           inter-node wire once per node instead of once per remote GPU. See docs/TOPOLOGY.md.)\n";
        cells =
          cells
            [
              jacobi_scale_app ~rows ~cols ~iters;
              Spmv.app { Spmv.rows = spmv_rows; width = spmv_width; iterations = spmv_iters; seed = 19 };
            ]
            (List.map machine
               (if smoke then [ "cluster:2x2" ] else [ "cluster:2x2"; "fattree:4x4"; "fattree:16x4" ]))
            (modes [ ("decomp", [ "1d"; "2d" ]); ("collective", [ "direct"; "ring" ]) ]);
        shape =
          "shape: at 4 GPUs the 2x2 tile perimeter roughly matches the 1-D halo rows, so the\n\
           decompositions tie; from 16 GPUs up the tiles win on per-GPU halo bytes and the gap\n\
           widens with P. spmv's replicated gather vector makes the collective planner earn its\n\
           keep: at 64 GPUs the ring schedule crosses each inter-node wire once per node where\n\
           the direct star crosses it once per remote GPU.\n";
        tracked_at = Default;
      }
  | target -> invalid_arg ("sweep " ^ target)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let usage () =
  print_endline
    "usage: main.exe [--scale small|default|paper] [--smoke] \
     [all|table1|table2|fig7|fig8|fig9|chunk-sweep|dirty-levels|policy|misscheck|layout|extended|expert|contention|cluster|balance|overlap|coherence|fusion|collective|fleet|sim|scale|paper-validate]";
  exit 1

let () =
  let scale = ref Default in
  let smoke = ref false in
  let targets = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: s :: rest ->
        (scale :=
           match s with
           | "small" -> Small
           | "default" -> Default
           | "paper" -> Paper
           | _ -> usage ());
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | t :: rest ->
        targets := t :: !targets;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let targets = if !targets = [] then [ "all" ] else List.rev !targets in
  let scale = !scale and smoke = !smoke in
  if scale = Paper then
    prerr_endline
      "note: paper-scale inputs run interpreted — MD takes minutes per variant, BFS tens of\n\
       minutes, KMEANS (494020x34x37 iterations) many hours. See EXPERIMENTS.md for recorded\n\
       paper-scale results.";
  let needs_collection = List.exists (fun t -> List.mem t [ "all"; "fig7"; "fig8"; "fig9" ]) targets in
  let collected = if needs_collection then collect scale else [] in
  let rec run = function
    | "all" ->
        List.iter run
          [ "table1"; "table2"; "fig7"; "fig8"; "fig9"; "chunk-sweep"; "dirty-levels"; "policy";
            "misscheck"; "layout"; "extended"; "expert"; "contention"; "cluster"; "balance";
            "overlap"; "coherence"; "fusion"; "collective"; "fleet"; "sim"; "scale" ]
    | "table1" -> table1 ()
    | "table2" -> table2 scale
    | "fig7" -> fig7 collected
    | "fig8" -> fig8 collected
    | "fig9" -> fig9 collected
    | "chunk-sweep" -> chunk_sweep scale
    | "dirty-levels" -> dirty_levels scale
    | "policy" -> policy scale
    | "misscheck" -> misscheck scale
    | "layout" -> layout scale
    | "extended" -> extended scale
    | "contention" -> contention ()
    | "expert" -> expert scale
    | "cluster" -> cluster scale
    | "balance" -> balance ~smoke
    | ("overlap" | "coherence" | "fusion" | "collective" | "scale") as target ->
        run_sweep scale ~smoke target (sweep scale ~smoke target)
    | "fleet" -> fleet_bench scale ~smoke
    | "sim" -> sim_bench ~smoke
    | "paper-validate" -> paper_validate ()
    | _ -> usage ()
  in
  List.iter run targets
