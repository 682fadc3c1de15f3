(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Komoda et al., ICPP 2013), plus the ablations DESIGN.md
   calls out.

     dune exec bench/main.exe                 -- everything, default scale
     dune exec bench/main.exe -- fig7         -- one experiment
     dune exec bench/main.exe -- --scale small all
     dune exec bench/main.exe -- --bechamel   -- Bechamel wall-clock probes

   Absolute numbers come from the simulated machines (Table I presets);
   the paper's shapes — who wins, by what factor, where communication
   dominates — are the reproduction target. EXPERIMENTS.md records a
   paper-vs-measured comparison for each experiment. *)

open Mgacc
open Mgacc_apps
module Table = Mgacc_util.Table

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

(* "ok" when every run's results match the sequential reference. *)
let verdict app ~against envs =
  if List.for_all (fun env -> App_common.verify app ~against env = Ok ()) envs then "ok"
  else "MISMATCH"

(* Comparison-bench machines: (name, fresh machine, GPUs used). *)
let desktop_m = ("desktop", (fun () -> Machine.desktop ()), 2)
let supernode_m = ("supernode", (fun () -> Machine.supernode ()), 3)
let cluster_m = ("cluster", (fun () -> Machine.cluster ~nodes:2 ~gpus_per_node:2 ()), 4)

(* A tracked BENCH_*.json is written only from the configuration it
   records: never from a --smoke run, and, for artifacts that carry a
   "scale" key, only at that declared scale ([scale] is the pair (this
   run's scale, declared scale)). Any other run prints its table and
   leaves the committed artifact alone. *)
let write_artifact ?scale ~smoke file contents =
  match scale with
  | _ when smoke -> Printf.printf "\nsmoke configuration: no %s written\n" file
  | Some (run, declared) when run <> declared ->
      Printf.printf "\nscale %s: no %s written (it is tracked at --scale %s)\n" (scale_name run)
        file (scale_name declared)
  | _ ->
      let oc = open_out file in
      output_string oc contents;
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

(* ------------------------------------------------------------------ *)
(* Fig. 7: relative performance normalized to OpenMP                   *)
(* ------------------------------------------------------------------ *)

let fig7 collected =
  print_endline "== Fig. 7: performance relative to OpenMP (higher is better) ==";
  List.iter
    (fun platform ->
      Printf.printf "\n-- %s --\n" platform.pname;
      let headers =
        [ "app"; "OpenMP"; "PGI(1)"; "CUDA(1)" ]
        @ List.map (fun n -> Printf.sprintf "Proposal(%d)" n) platform.gpu_counts
      in
      let t = Table.create ~headers in
      List.iter
        (fun kind ->
          match
            List.find_opt (fun c -> c.platform = platform.pname && c.kind = kind) collected
          with
          | None -> ()
          | Some c ->
              let base = c.openmp.Report.total_time in
              let rel (r : Report.t) = Printf.sprintf "%.2f" (base /. r.Report.total_time) in
              Table.add_row t
                ([ app_name kind; "1.00"; rel c.pgi; rel c.cuda ]
                @ List.map (fun (_, r) -> rel r) c.proposals))
        all_apps;
      Table.print t)
    platforms;
  print_endline
    "\npaper shapes: MD/KMEANS beat OpenMP and scale with GPUs (up to 6.75x desktop, 2.95x\n\
     supernode); Proposal(multi-GPU) beats CUDA(1); BFS gains little and can lose on the\n\
     supernode where inter-GPU communication dominates.\n"

(* ------------------------------------------------------------------ *)
(* Fig. 8: execution-time breakdown                                    *)
(* ------------------------------------------------------------------ *)

let fig8 collected =
  print_endline "== Fig. 8: execution-time breakdown, normalized to 1-GPU total ==";
  List.iter
    (fun platform ->
      Printf.printf "\n-- %s --\n" platform.pname;
      let t =
        Table.create ~headers:[ "app"; "GPUs"; "KERNELS"; "CPU-GPU"; "GPU-GPU"; "total" ]
      in
      List.iter
        (fun kind ->
          match
            List.find_opt (fun c -> c.platform = platform.pname && c.kind = kind) collected
          with
          | None -> ()
          | Some c ->
              let base =
                match List.assoc_opt 1 c.proposals with
                | Some r -> r.Report.total_time
                | None -> 1.0
              in
              List.iter
                (fun (n, (r : Report.t)) ->
                  Table.add_row t
                    [
                      app_name kind;
                      string_of_int n;
                      Printf.sprintf "%.3f" (r.Report.kernel_time /. base);
                      Printf.sprintf "%.3f" (r.Report.cpu_gpu_time /. base);
                      Printf.sprintf "%.3f" ((r.Report.gpu_gpu_time +. r.Report.overhead_time) /. base);
                      Printf.sprintf "%.3f" (r.Report.total_time /. base);
                    ])
                c.proposals;
              Table.add_separator t)
        all_apps;
      Table.print t)
    platforms;
  print_endline
    "\npaper shapes: KERNELS shrinks with GPU count; CPU-GPU does not (host link saturates);\n\
     GPU-GPU is zero for MD, small for KMEANS, and dominant for BFS on multiple GPUs.\n"

(* ------------------------------------------------------------------ *)
(* Fig. 9: device memory usage                                         *)
(* ------------------------------------------------------------------ *)

let fig9 collected =
  print_endline "== Fig. 9: device memory usage, normalized to 1-GPU user total ==";
  List.iter
    (fun platform ->
      Printf.printf "\n-- %s --\n" platform.pname;
      let t = Table.create ~headers:[ "app"; "GPUs"; "User"; "System"; "total" ] in
      List.iter
        (fun kind ->
          match
            List.find_opt (fun c -> c.platform = platform.pname && c.kind = kind) collected
          with
          | None -> ()
          | Some c ->
              let base =
                match List.assoc_opt 1 c.proposals with
                | Some r -> float_of_int r.Report.mem_user_bytes
                | None -> 1.0
              in
              List.iter
                (fun (n, (r : Report.t)) ->
                  let u = float_of_int r.Report.mem_user_bytes /. base in
                  let s = float_of_int r.Report.mem_system_bytes /. base in
                  Table.add_row t
                    [
                      app_name kind;
                      string_of_int n;
                      Printf.sprintf "%.3f" u;
                      Printf.sprintf "%.3f" s;
                      Printf.sprintf "%.3f" (u +. s);
                    ])
                c.proposals;
              Table.add_separator t)
        all_apps;
      Table.print t)
    platforms;
  print_endline
    "\npaper shapes: User memory grows only mildly with GPU count (distribution policy);\n\
     System overhead is largest for BFS but stays under ~30%.\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let chunk_sweep scale =
  Printf.printf "== Ablation A: dirty-bit chunk size (BFS, 2 GPUs, scale: %s) ==\n"
    (scale_name scale);
  print_endline "(the paper picks 1MB experimentally, §IV-D-1)\n";
  let app = app_of BFS scale in
  let t = Table.create ~headers:[ "chunk"; "GPU-GPU bytes"; "GPU-GPU time"; "total time" ] in
  List.iter
    (fun chunk ->
      let _, r =
        App_common.proposal (Rt_config.make ~chunk_bytes:chunk ~num_gpus:2 (Machine.desktop ())) app
      in
      Table.add_row t
        [
          Bytesize.to_string chunk;
          Bytesize.to_string r.Report.gpu_gpu_bytes;
          Printf.sprintf "%.6fs" r.Report.gpu_gpu_time;
          Printf.sprintf "%.6fs" r.Report.total_time;
        ])
    [ 4 * 1024; 64 * 1024; 256 * 1024; 1024 * 1024; 4 * 1024 * 1024 ];
  Table.print t;
  print_newline ()

let dirty_levels scale =
  Printf.printf "== Ablation B: one- vs two-level dirty bits (BFS, 2 GPUs, scale: %s) ==\n"
    (scale_name scale);
  print_endline
    "(the chunk must be smaller than the array for the second level to matter;\n\
     at paper scale the 444MB levels array dwarfs the 1MB chunk)\n";
  let app = app_of BFS scale in
  let t = Table.create ~headers:[ "mechanism"; "GPU-GPU bytes"; "GPU-GPU time"; "total time" ] in
  List.iter
    (fun (label, two_level, chunk) ->
      let _, r =
        App_common.proposal
          (Rt_config.make ~two_level_dirty:two_level ~chunk_bytes:chunk ~num_gpus:2
             (Machine.desktop ()))
          app
      in
      Table.add_row t
        [
          label;
          Bytesize.to_string r.Report.gpu_gpu_bytes;
          Printf.sprintf "%.6fs" r.Report.gpu_gpu_time;
          Printf.sprintf "%.6fs" r.Report.total_time;
        ])
    [
      ("single-level", false, 1024 * 1024);
      ("two-level (16KB chunks)", true, 16 * 1024);
      ("two-level (64KB chunks)", true, 64 * 1024);
    ];
  Table.print t;
  print_newline ()

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
              Kernel_plan.enable_distribution = false;
              enable_layout_transform = true;
              enable_miss_check_elim = false;
              enable_fusion = false;
              enable_decomp2d = false;
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
  let rows = ref [] in
  List.iter
    (fun gpus ->
      let _, r_expert = Md.run_cuda_multi ~machine:(Machine.desktop ()) ~gpus p in
      let _, r_prop = App_common.proposal (desktop gpus) (Md.app p) in
      rows := (gpus, r_expert, r_prop) :: !rows)
    [ 1; 2 ];
  List.iter
    (fun (gpus, (e : Report.t), (pr : Report.t)) ->
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
    (List.rev !rows);
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
(* Overlap engine: barrier vs dependency-driven launch pipeline        *)
(* ------------------------------------------------------------------ *)

(* Every run is checked against the sequential reference — overlap must
   change timings only, never results. The JSON lands in
   BENCH_overlap.json for CI trend tracking. *)
let overlap_bench scale ~smoke =
  Printf.printf "== Overlap engine: barrier vs dependency-driven (scale: %s%s) ==\n"
    (scale_name scale)
    (if smoke then "; smoke" else "");
  print_endline
    "(--overlap on gates every transfer/replay on its own producer's events instead of\n\
     phase barriers; see docs/OVERLAP.md. 'hidden' is activity off the critical path.)\n";
  let apps =
    [
      ("md", app_of MD scale);
      ("kmeans", app_of KMEANS scale);
      ("bfs", app_of BFS scale);
      ("spmv", Spmv.app Spmv.default_params);
      ("montecarlo", Montecarlo.app Montecarlo.default_params);
    ]
  in
  let machines =
    if smoke then [ desktop_m ]
    else [ desktop_m; ("desktop-mixed", (fun () -> Machine.desktop_mixed ()), 2); supernode_m ]
  in
  let t =
    Table.create
      ~headers:[ "app"; "machine"; "barrier"; "overlap"; "gain"; "hidden"; "prefetch"; "check" ]
  in
  let json_entries = ref [] in
  List.iter
    (fun (name, app) ->
      let seq = App_common.sequential app in
      List.iter
        (fun (mname, fresh, gpus) ->
          progress "  [overlap] %s on %s..." name mname;
          let _, off = App_common.proposal (Rt_config.make ~num_gpus:gpus (fresh ())) app in
          let env, on =
            App_common.proposal (Rt_config.make ~overlap:true ~num_gpus:gpus (fresh ())) app
          in
          let ok = verdict app ~against:seq [ env ] in
          let gain = 100.0 *. (1.0 -. (on.Report.total_time /. off.Report.total_time)) in
          Table.add_row t
            [
              name;
              Printf.sprintf "%s(%d)" mname gpus;
              Printf.sprintf "%.6fs" off.Report.total_time;
              Printf.sprintf "%.6fs" on.Report.total_time;
              Printf.sprintf "%+.1f%%" gain;
              Printf.sprintf "%.6fs" on.Report.hidden_seconds;
              string_of_int on.Report.prefetch_hits;
              ok;
            ];
          json_entries :=
            Printf.sprintf
              "    {\"app\": %S, \"machine\": %S, \"gpus\": %d, \"barrier_seconds\": %.9g, \
               \"overlap_seconds\": %.9g, \"hidden_seconds\": %.9g, \"prefetch_hits\": %d, \
               \"results_match\": %b}"
              name mname gpus off.Report.total_time on.Report.total_time on.Report.hidden_seconds
              on.Report.prefetch_hits (ok = "ok")
            :: !json_entries)
        machines)
    apps;
  Table.print t;
  write_artifact ~scale:(scale, Small) ~smoke "BENCH_overlap.json"
    (Printf.sprintf
    "{\n\
    \  \"scale\": %S,\n\
    \  \"flags\": {\"overlap\": \"off-vs-on\", \"coherence\": \"eager\", \"collective\": \"direct\"},\n\
    \  \"runs\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (scale_name scale)
    (String.concat ",\n" (List.rev !json_entries)));
  print_endline
    "shape: bfs (dirty-chunk reconciliation + irregular per-launch imbalance) gains the\n\
     most — the slow GPU's exchange streams while the fast one proceeds. kmeans can lose\n\
     slightly: the barrier model optimistically charged reduction broadcasts concurrently\n\
     with the gathers they depend on; the DAG serializes gather -> combine -> bcast.\n"

(* ------------------------------------------------------------------ *)
(* Coherence: eager all-pairs reconciliation vs demand-driven shipping  *)
(* ------------------------------------------------------------------ *)

(* Every run is checked against the sequential reference — lazy coherence
   must change traffic and timings only, never results. 'coh bytes' is
   the replicated-array + reduction reconciliation traffic (shipped plus
   on-demand pulls); distributed halo/miss traffic is identical in both
   modes and excluded. The JSON lands in BENCH_coherence.json. *)
let coherence_bench scale ~smoke =
  Printf.printf "== Coherence: eager vs demand-driven lazy (scale: %s%s) ==\n" (scale_name scale)
    (if smoke then "; smoke" else "");
  print_endline
    "(--coherence lazy ships a writer's dirty intervals only to GPUs whose next read\n\
     window covers them; unread data stays stale and is pulled on demand. See\n\
     docs/COHERENCE.md. 'elided' is deferred traffic nobody ever needed.)\n";
  let apps =
    [
      ("md", app_of MD scale);
      ("kmeans", app_of KMEANS scale);
      ("bfs", app_of BFS scale);
      ("spmv", Spmv.app Spmv.default_params);
      ("montecarlo", Montecarlo.app Montecarlo.default_params);
    ]
  in
  let machines = if smoke then [ cluster_m ] else [ desktop_m; supernode_m; cluster_m ] in
  let coh_bytes (r : Report.t) = r.Report.coh_shipped_bytes + r.Report.coh_pulled_bytes in
  let t =
    Table.create
      ~headers:
        [ "app"; "machine"; "eager coh"; "lazy coh"; "cut"; "elided"; "eager t"; "lazy t"; "check" ]
  in
  let json_entries = ref [] in
  List.iter
    (fun (name, app) ->
      let seq = App_common.sequential app in
      List.iter
        (fun (mname, fresh, gpus) ->
          progress "  [coherence] %s on %s(%d)..." name mname gpus;
          let _, eager = App_common.proposal (Rt_config.make ~num_gpus:gpus (fresh ())) app in
          let env, lz =
            App_common.proposal
              (Rt_config.make ~coherence:Rt_config.Lazy ~num_gpus:gpus (fresh ()))
              app
          in
          let ok = verdict app ~against:seq [ env ] in
          let eb = coh_bytes eager and lb = coh_bytes lz in
          let cut = if eb = 0 then 0.0 else 100.0 *. (1.0 -. (float_of_int lb /. float_of_int eb)) in
          Table.add_row t
            [
              name;
              Printf.sprintf "%s(%d)" mname gpus;
              Mgacc_util.Bytesize.to_string eb;
              Mgacc_util.Bytesize.to_string lb;
              Printf.sprintf "%+.1f%%" cut;
              Mgacc_util.Bytesize.to_string (Report.coh_elided_bytes lz);
              Printf.sprintf "%.6fs" eager.Report.total_time;
              Printf.sprintf "%.6fs" lz.Report.total_time;
              ok;
            ];
          json_entries :=
            Printf.sprintf
              "    {\"app\": %S, \"machine\": %S, \"gpus\": %d, \"eager_seconds\": %.9g, \
               \"lazy_seconds\": %.9g, \"eager_coh_bytes\": %d, \"lazy_coh_bytes\": %d, \
               \"eager_gpu_gpu_bytes\": %d, \"lazy_gpu_gpu_bytes\": %d, \
               \"lazy_shipped_bytes\": %d, \"lazy_deferred_bytes\": %d, \"lazy_pulled_bytes\": \
               %d, \"lazy_elided_bytes\": %d, \"results_match\": %b}"
              name mname gpus eager.Report.total_time lz.Report.total_time eb lb
              eager.Report.gpu_gpu_bytes lz.Report.gpu_gpu_bytes lz.Report.coh_shipped_bytes
              lz.Report.coh_deferred_bytes lz.Report.coh_pulled_bytes (Report.coh_elided_bytes lz)
              (ok = "ok")
            :: !json_entries)
        machines)
    apps;
  Table.print t;
  (* The overlap DAG under lazy coherence: the binomial-tree broadcast
     rounds must not regress kmeans below its barrier-mode time. *)
  let kmeans = app_of KMEANS scale in
  let km_seq = App_common.sequential kmeans in
  let km_entries = ref [] in
  let kt = Table.create ~headers:[ "machine"; "barrier"; "overlap"; "gain"; "check" ] in
  List.iter
    (fun (mname, fresh, gpus) ->
      progress "  [coherence] kmeans overlap on %s(%d)..." mname gpus;
      let _, off =
        App_common.proposal
          (Rt_config.make ~coherence:Rt_config.Lazy ~num_gpus:gpus (fresh ()))
          kmeans
      in
      let env, on =
        App_common.proposal
          (Rt_config.make ~coherence:Rt_config.Lazy ~overlap:true ~num_gpus:gpus (fresh ()))
          kmeans
      in
      let ok = verdict kmeans ~against:km_seq [ env ] in
      let gain = 100.0 *. (1.0 -. (on.Report.total_time /. off.Report.total_time)) in
      Table.add_row kt
        [
          Printf.sprintf "%s(%d)" mname gpus;
          Printf.sprintf "%.6fs" off.Report.total_time;
          Printf.sprintf "%.6fs" on.Report.total_time;
          Printf.sprintf "%+.1f%%" gain;
          ok;
        ];
      km_entries :=
        Printf.sprintf
          "    {\"machine\": %S, \"gpus\": %d, \"barrier_seconds\": %.9g, \"overlap_seconds\": \
           %.9g, \"results_match\": %b}"
          mname gpus off.Report.total_time on.Report.total_time (ok = "ok")
        :: !km_entries)
    machines;
  print_endline "\n-- kmeans under lazy coherence: barrier vs overlap --";
  Table.print kt;
  write_artifact ~scale:(scale, Default) ~smoke "BENCH_coherence.json"
    (Printf.sprintf
    "{\n\
    \  \"scale\": %S,\n\
    \  \"flags\": {\"coherence\": \"eager-vs-lazy\", \"overlap\": \"off\", \"collective\": \
     \"direct\", \"kmeans_overlap_section\": \"lazy, overlap off-vs-on\"},\n\
    \  \"runs\": [\n\
     %s\n\
    \  ],\n\
    \  \"kmeans_overlap\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (scale_name scale)
    (String.concat ",\n" (List.rev !json_entries))
    (String.concat ",\n" (List.rev !km_entries)));
  print_endline
    "shape: kmeans cuts the most — reduction results fan out as per-GPU windows instead of\n\
     whole-array broadcasts, and self-reads elide the rest. spmv ships one contiguous run\n\
     per destination instead of padded dirty chunks; bfs ships sparse frontier runs. md and\n\
     montecarlo reconcile distributed/private data and are unchanged by design.\n"

(* Cost-model-guided kernel fusion (--fuse on, docs/FUSION.md): adjacent
   compatible parallel loops become one kernel, group-confined create
   temporaries contract to scalars (vanishing from the device and from
   the coherence layer), and strided read-only arrays get a one-time
   layout repack. Every run is checked against the sequential reference;
   bfs rides along as a control the pass must leave untouched. The JSON
   lands in BENCH_fusion.json. *)
let fusion_bench scale ~smoke =
  Printf.printf "== Fusion: --fuse off vs on (scale: %s%s) ==\n" (scale_name scale)
    (if smoke then "; smoke" else "");
  print_endline
    "(fusion-friendly md/kmeans variants: chains of adjacent clause-free parallel loops\n\
     with create temporaries that die inside the fused group. 'coh bytes' is shipped plus\n\
     pulled reconciliation traffic; contracted temporaries stop generating any.)\n";
  let apps =
    [
      ("md", Fusionable.md Fusionable.default_md);
      ("kmeans", Fusionable.kmeans Fusionable.default_kmeans);
      ("bfs", app_of BFS scale);
    ]
  in
  let machines = if smoke then [ cluster_m ] else [ desktop_m; cluster_m ] in
  let coh_bytes (r : Report.t) = r.Report.coh_shipped_bytes + r.Report.coh_pulled_bytes in
  let t =
    Table.create
      ~headers:
        [ "app"; "machine"; "off t"; "on t"; "gain"; "off coh"; "on coh"; "fused"; "contr"; "check" ]
  in
  let json_entries = ref [] in
  List.iter
    (fun (name, app) ->
      let seq = App_common.sequential app in
      List.iter
        (fun (mname, fresh, gpus) ->
          progress "  [fusion] %s on %s(%d)..." name mname gpus;
          let env_off, off = App_common.proposal (Rt_config.make ~num_gpus:gpus (fresh ())) app in
          let fused = set_mode (Rt_config.make ~num_gpus:gpus (fresh ())) "fuse" "on" in
          let env_on, on = App_common.proposal fused app in
          let ok = verdict app ~against:seq [ env_off; env_on ] in
          let gain = 100.0 *. (1.0 -. (on.Report.total_time /. off.Report.total_time)) in
          Table.add_row t
            [
              name;
              Printf.sprintf "%s(%d)" mname gpus;
              Printf.sprintf "%.6fs" off.Report.total_time;
              Printf.sprintf "%.6fs" on.Report.total_time;
              Printf.sprintf "%+.1f%%" gain;
              Mgacc_util.Bytesize.to_string (coh_bytes off);
              Mgacc_util.Bytesize.to_string (coh_bytes on);
              string_of_int on.Report.fused_kernels;
              string_of_int on.Report.contracted_arrays;
              ok;
            ];
          json_entries :=
            Printf.sprintf
              "    {\"app\": %S, \"machine\": %S, \"gpus\": %d, \"unfused_seconds\": %.9g, \
               \"fused_seconds\": %.9g, \"unfused_coh_bytes\": %d, \"fused_coh_bytes\": %d, \
               \"unfused_gpu_gpu_bytes\": %d, \"fused_gpu_gpu_bytes\": %d, \"fused_kernels\": \
               %d, \"contracted_arrays\": %d, \"relayouts\": %d, \"results_match\": %b}"
              name mname gpus off.Report.total_time on.Report.total_time (coh_bytes off)
              (coh_bytes on) off.Report.gpu_gpu_bytes on.Report.gpu_gpu_bytes
              on.Report.fused_kernels on.Report.contracted_arrays on.Report.relayouts (ok = "ok")
            :: !json_entries)
        machines)
    apps;
  Table.print t;
  write_artifact ~scale:(scale, Default) ~smoke "BENCH_fusion.json"
    (Printf.sprintf
      "{\n\
      \  \"scale\": %S,\n\
      \  \"flags\": {\"fuse\": \"off-vs-on\", \"overlap\": \"off\", \"coherence\": \"eager\", \
       \"collective\": \"direct\"},\n\
      \  \"runs\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      (scale_name scale)
      (String.concat ",\n" (List.rev !json_entries)));
  print_endline
    "shape: md fuses its three velocity-Verlet loops into one kernel and contracts the\n\
     acceleration temporary outright; kmeans fuses assignment with membership, contracts\n\
     both per-point temporaries and repacks the strided point matrix once. bfs has no\n\
     adjacent compatible loops and must be byte-identical in both columns.\n"

(* ------------------------------------------------------------------ *)
(* Collectives: direct star/tree vs topology-aware planned schedules    *)
(* ------------------------------------------------------------------ *)

(* Every run is checked against the sequential reference — the planner
   reshapes who sends what to whom, never what arrives. 'wire' is the
   inter-node subset of GPU-GPU traffic: the planner's job is moving the
   same payloads while crossing the wire less (ring chains and
   hierarchical staging) and hiding latency (chunked pipelining). The
   JSON lands in BENCH_collective.json. *)
let collective_bench scale ~smoke =
  Printf.printf "== Collectives: direct vs topology-aware auto (scale: %s%s) ==\n"
    (scale_name scale)
    (if smoke then "; smoke" else "");
  print_endline
    "(--collective auto lowers replicated-array reconciliation and reduction broadcasts\n\
     into ring or hierarchical schedules with segment pipelining when the cost model\n\
     says they beat the star; see docs/MODEL.md 'Collectives'.)\n";
  let apps =
    [
      ("md", app_of MD scale);
      ("kmeans", app_of KMEANS scale);
      ("bfs", app_of BFS scale);
      ("spmv", Spmv.app Spmv.default_params);
      ("montecarlo", Montecarlo.app Montecarlo.default_params);
    ]
  in
  let machines = if smoke then [ cluster_m ] else [ desktop_m; supernode_m; cluster_m ] in
  let coherences = (Rt_config.find "coherence").Rt_config.spellings in
  let t =
    Table.create
      ~headers:
        [ "app"; "machine"; "coh"; "direct t"; "auto t"; "gain"; "direct wire"; "auto wire";
          "rings/hier"; "check" ]
  in
  let json_entries = ref [] in
  List.iter
    (fun (name, app) ->
      let seq = App_common.sequential app in
      List.iter
        (fun (mname, fresh, gpus) ->
          List.iter
            (fun cname ->
              progress "  [collective] %s on %s(%d) %s..." name mname gpus cname;
              let run collective =
                let config = Rt_config.make ~collective ~num_gpus:gpus (fresh ()) in
                App_common.proposal (set_mode config "coherence" cname) app
              in
              let env_d, direct = run Rt_config.Direct in
              let env_a, auto = run Rt_config.Auto in
              let ok = verdict app ~against:seq [ env_d; env_a ] in
              let gain =
                100.0 *. (1.0 -. (auto.Report.total_time /. direct.Report.total_time))
              in
              Table.add_row t
                [
                  name;
                  Printf.sprintf "%s(%d)" mname gpus;
                  cname;
                  Printf.sprintf "%.6fs" direct.Report.total_time;
                  Printf.sprintf "%.6fs" auto.Report.total_time;
                  Printf.sprintf "%+.1f%%" gain;
                  Mgacc_util.Bytesize.to_string direct.Report.wire_bytes;
                  Mgacc_util.Bytesize.to_string auto.Report.wire_bytes;
                  Printf.sprintf "%d/%d" auto.Report.collective_rings
                    auto.Report.collective_hierarchies;
                  ok;
                ];
              json_entries :=
                Printf.sprintf
                  "    {\"app\": %S, \"machine\": %S, \"gpus\": %d, \"coherence\": %S, \
                   \"direct_seconds\": %.9g, \"auto_seconds\": %.9g, \
                   \"direct_gpu_gpu_seconds\": %.9g, \"auto_gpu_gpu_seconds\": %.9g, \
                   \"gpu_gpu_bytes\": %d, \"direct_wire_bytes\": %d, \"auto_wire_bytes\": %d, \
                   \"rings\": %d, \"hierarchies\": %d, \"segments\": %d, \"results_match\": %b}"
                  name mname gpus cname direct.Report.total_time auto.Report.total_time
                  direct.Report.gpu_gpu_time auto.Report.gpu_gpu_time auto.Report.gpu_gpu_bytes
                  direct.Report.wire_bytes auto.Report.wire_bytes auto.Report.collective_rings
                  auto.Report.collective_hierarchies auto.Report.collective_segments (ok = "ok")
                :: !json_entries)
            coherences)
        machines)
    apps;
  Table.print t;
  write_artifact ~scale:(scale, Default) ~smoke "BENCH_collective.json"
    (Printf.sprintf
    "{\n\
    \  \"scale\": %S,\n\
    \  \"flags\": {\"collective\": \"direct-vs-auto\", \"coherence\": \"eager-and-lazy\", \
     \"overlap\": \"off\"},\n\
    \  \"runs\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (scale_name scale)
    (String.concat ",\n" (List.rev !json_entries)));
  print_endline
    "shape: the wins concentrate on the 4-GPU cluster and the replica-heavy apps (kmeans,\n\
     spmv, bfs): a ring or hierarchical schedule crosses the 3.2GB/s wire once per node\n\
     instead of once per remote destination. md and montecarlo reconcile little or nothing\n\
     and stay direct under the cost model; single-node machines gain only pipelining.\n"

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
  let json_entries = ref [] in
  List.iter
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
      json_entries := Printf.sprintf "    %s" (Mgacc.Fleet.stats_to_json s) :: !json_entries)
    [ Mgacc.Fleet.Fifo; Mgacc.Fleet.Sjf; Mgacc.Fleet.Fair ];
  Table.print t;
  write_artifact ~scale:(scale, Small) ~smoke "BENCH_fleet.json"
    (Printf.sprintf
      "{\n\
      \  \"scale\": %S,\n\
      \  \"flags\": {\"policy\": \"fifo-vs-sjf-vs-fair\", \"keep_warm\": true},\n\
      \  \"machine\": \"cluster\",\n\
      \  \"gpus\": 4,\n\
      \  \"job_count\": %d,\n\
      \  \"mem_budget_bytes\": %d,\n\
      \  \"policies\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      (scale_name scale) job_count budget
      (String.concat ",\n" (List.rev !json_entries)));
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

let sim_bench ~smoke ?machine_override () =
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
  Fabric.set_reference_allocator fabric true;
  let slow = Fabric.run_batch fabric reqs in
  Fabric.set_reference_allocator fabric false;
  List.iter2
    (fun (a : Fabric.completion) (b : Fabric.completion) ->
      if not (Float.equal a.Fabric.start b.Fabric.start && Float.equal a.Fabric.finish b.Fabric.finish)
      then failwith "bench sim: incremental and reference allocators diverged")
    fast slow;
  (* Every request is one arrival plus one completion. *)
  let events = 2 * flows in
  let measure name use_reference =
    progress "  [sim] timing %s allocator (%d iterations)..." name iters;
    Fabric.set_reference_allocator fabric use_reference;
    let median, spread = sim_time_runs ~iters (fun () -> ignore (Fabric.run_batch fabric reqs)) in
    Fabric.set_reference_allocator fabric false;
    (median, spread, float_of_int events /. median)
  in
  let ref_median, ref_spread, ref_eps = measure "reference" true in
  let inc_median, inc_spread, inc_eps = measure "incremental" false in
  let speedup = ref_median /. inc_median in
  (* Optional --machine override: replay an equivalent storm on a
     user-chosen topology and report its incremental throughput as an
     extra, purely informational data point. The pinned 64-GPU cluster
     numbers above are what CI trends; the override never replaces them. *)
  let override_cell =
    match machine_override with
    | None -> None
    | Some spec ->
        let m = Machine.of_spec spec in
        let fab = m.Machine.fabric in
        (match Fabric.topology fab with
        | None ->
            progress "  [sim] --machine %s has no multi-node topology; skipping override"
              (Machine.spec_to_string spec);
            None
        | Some _ ->
            let spec_str = Machine.spec_to_string spec in
            progress "  [sim] --machine %s: timing incremental allocator..." spec_str;
            let oreqs = sim_storm fab ~flows ~waves ~seed:20260807 in
            let omedian, _ = sim_time_runs ~iters (fun () -> ignore (Fabric.run_batch fab oreqs)) in
            let oeps = float_of_int (2 * flows) /. omedian in
            Some (spec_str, Machine.num_gpus m, omedian, oeps))
  in
  (match override_cell with
  | None -> ()
  | Some (spec_str, gpus, omedian, oeps) ->
      Printf.printf "  --machine %s (%d GPUs): incremental median %.4fs, %.0f events/s\n" spec_str
        gpus omedian oeps);
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
  write_artifact ~smoke "BENCH_sim.json"
    (Printf.sprintf
      "{\n\
      \  \"flags\": {\"allocator\": \"incremental-vs-reference\", \"storm\": \
       \"h2d-d2h-p2p-mixed\"},\n\
      \  \"machine\": \"cluster\",\n\
      \  \"nodes\": %d,\n\
      \  \"gpus_per_node\": %d,\n\
      \  \"gpus\": %d,\n\
      \  \"flows\": %d,\n\
      \  \"waves\": %d,\n\
      \  \"events\": %d,\n\
      \  \"iterations\": %d,\n\
      \  \"reference\": {\"median_seconds\": %.9g, \"spread_seconds\": %.9g, \
       \"events_per_second\": %.9g},\n\
      \  \"incremental\": {\"median_seconds\": %.9g, \"spread_seconds\": %.9g, \
       \"events_per_second\": %.9g},\n\
      \  \"speedup\": %.9g,\n\
      \  \"floor_events_per_second\": %.9g%s\n\
       }\n"
      nodes gpus_per_node (nodes * gpus_per_node) flows waves events iters ref_median ref_spread
      ref_eps inc_median inc_spread inc_eps speedup sim_floor_events_per_second
      (match override_cell with
      | None -> ""
      | Some (spec_str, gpus, omedian, oeps) ->
          Printf.sprintf
            ",\n\
            \  \"machine_override\": {\"spec\": %S, \"gpus\": %d, \"median_seconds\": %.9g, \
             \"events_per_second\": %.9g}"
            spec_str gpus omedian oeps));
  Printf.printf
    "shape: the reference allocator rebuilds hashtable water-filling state on every\n\
     arrival/completion event, so per-event cost grows with active flows x resources;\n\
     the incremental allocator keeps per-resource counts alive across events, water-fills\n\
     over flat arrays, and skips the refill entirely when an event touches only idle\n\
     resources. Throughput floor for CI: %.0f events/s.\n"
    sim_floor_events_per_second

(* ------------------------------------------------------------------ *)
(* bench scale: past 4 GPUs — decomposition and collective scaling     *)
(* ------------------------------------------------------------------ *)

(* The scaling sweep the tentpole claims are made at: jacobi (a 2-D
   stencil with an inner parallel column loop, so it is 2-D eligible)
   and spmv (a replicated gather vector reconciled every iteration, so
   its traffic is collective-shaped) on 4-, 16- and 64-GPU machines
   built from --machine specs, crossing 1-D vs 2-D decomposition with
   star (direct) vs ring collectives. Tracked shapes: the 2-D tiles'
   per-GPU halo bytes drop below the 1-D rows' once the machine has
   >= 16 GPUs (perimeter vs full row width), and the ring schedule puts
   fewer bytes on the inter-node wire than the star at 64 GPUs. *)
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

let scale_bench scale ~smoke =
  Printf.printf "== bench scale: 1-D vs 2-D decomposition, star vs ring, 4 to 64 GPUs (scale: %s%s) ==\n"
    (scale_name scale)
    (if smoke then "; smoke" else "");
  print_endline
    "(machines built from --machine specs; 2-D tiles the stencil over a sqrt(P)-ish GPU\n\
     grid so halo traffic follows the tile perimeter; ring collectives cross each\n\
     inter-node wire once per node instead of once per remote GPU. See docs/TOPOLOGY.md.)\n";
  let machine_specs =
    if smoke then [ "cluster:2x2" ] else [ "cluster:2x2"; "fattree:4x4"; "fattree:16x4" ]
  in
  let rows, cols, iters, spmv_rows, spmv_width, spmv_iters =
    if smoke then (32, 24, 2, 256, 6, 2)
    else
      match scale with
      | Small -> (96, 96, 2, 1024, 8, 2)
      | Default | Paper -> (192, 192, 3, 4096, 8, 3)
  in
  let apps =
    [
      jacobi_scale_app ~rows ~cols ~iters;
      Spmv.app { Spmv.rows = spmv_rows; width = spmv_width; iterations = spmv_iters; seed = 19 };
    ]
  in
  let decomps = (Rt_config.find "decomp").Rt_config.spellings in
  (* BENCH_scale.json labels the direct schedule "star". *)
  let collective_label cfg =
    if cfg.Rt_config.collective = Rt_config.Direct then "star"
    else (Rt_config.find "collective").Rt_config.read cfg
  in
  let t =
    Table.create
      ~headers:
        [ "app"; "machine"; "gpus"; "decomp"; "coll"; "time"; "halo/GPU"; "wire"; "rings"; "check" ]
  in
  let json_entries = ref [] in
  let mismatches = ref [] in
  List.iter
    (fun (app : App_common.t) ->
      let seq = App_common.sequential app in
      List.iter
        (fun spec_str ->
          let spec =
            match Machine.spec_of_string spec_str with
            | Ok s -> s
            | Error e -> failwith e
          in
          let gpus = Machine.spec_gpus spec in
          List.iter
            (fun dname ->
              List.iter
                (fun collective ->
                  let config =
                    set_mode
                      (Rt_config.make ~collective ~num_gpus:gpus (Machine.of_spec spec))
                      "decomp" dname
                  in
                  let cname = collective_label config in
                  progress "  [scale] %s on %s %s/%s..." app.App_common.name spec_str dname cname;
                  let env, report = App_common.proposal config app in
                  let ok =
                    match App_common.verify app ~against:seq env with
                    | Ok () -> true
                    | Error e ->
                        mismatches :=
                          Printf.sprintf "%s on %s %s/%s: %s" app.App_common.name spec_str dname
                            cname e
                          :: !mismatches;
                        false
                  in
                  let halo_per_gpu = report.Report.gpu_gpu_bytes / gpus in
                  Table.add_row t
                    [
                      app.App_common.name;
                      spec_str;
                      string_of_int gpus;
                      dname;
                      cname;
                      Printf.sprintf "%.6fs" report.Report.total_time;
                      Mgacc_util.Bytesize.to_string halo_per_gpu;
                      Mgacc_util.Bytesize.to_string report.Report.wire_bytes;
                      string_of_int report.Report.collective_rings;
                      (if ok then "ok" else "MISMATCH");
                    ];
                  json_entries :=
                    Printf.sprintf
                      "    {\"app\": %S, \"machine\": %S, \"gpus\": %d, \"decomp\": %S, \
                       \"collective\": %S, \"seconds\": %.9g, \"gpu_gpu_bytes\": %d, \
                       \"halo_bytes_per_gpu\": %d, \"wire_bytes\": %d, \"rings\": %d, \
                       \"hierarchies\": %d, \"results_match\": %b}"
                      app.App_common.name spec_str gpus dname cname report.Report.total_time
                      report.Report.gpu_gpu_bytes halo_per_gpu report.Report.wire_bytes
                      report.Report.collective_rings report.Report.collective_hierarchies ok
                    :: !json_entries)
                [ Rt_config.Direct; Rt_config.Ring ])
            decomps)
        machine_specs)
    apps;
  Table.print t;
  if !mismatches <> [] then
    failwith ("bench scale: results diverged from the sequential reference:\n  "
              ^ String.concat "\n  " !mismatches);
  write_artifact ~scale:(scale, Default) ~smoke "BENCH_scale.json"
    (Printf.sprintf
      "{\n\
      \  \"scale\": %S,\n\
      \  \"flags\": {\"decomp\": \"1d-vs-2d\", \"collective\": \"star-vs-ring\", \
       \"coherence\": \"eager\", \"overlap\": \"off\"},\n\
      \  \"runs\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      (scale_name scale)
      (String.concat ",\n" (List.rev !json_entries)));
  print_endline
    "shape: at 4 GPUs the 2x2 tile perimeter roughly matches the 1-D halo rows, so the\n\
     decompositions tie; from 16 GPUs up the tiles win on per-GPU halo bytes and the gap\n\
     widens with P. spmv's replicated gather vector makes the collective planner earn its\n\
     keep: at 64 GPUs the ring schedule crosses each inter-node wire once per node where\n\
     the star crosses it once per remote GPU.\n"

(* ------------------------------------------------------------------ *)
(* Bechamel probes                                                     *)
(* ------------------------------------------------------------------ *)

let bechamel_probes () =
  let open Bechamel in
  let scale = Small in
  let test_of name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"mgacc"
      [
        test_of "table2:md-plan" (fun () ->
            ignore (Mgacc.compile (Mgacc.parse_string ~name:"md.c" (Md.source (md_params scale)))));
        test_of "fig7:md-proposal2" (fun () ->
            ignore
              (App_common.proposal (desktop 2) (app_of MD scale)));
        test_of "fig7:kmeans-proposal2" (fun () ->
            ignore
              (App_common.proposal (desktop 2) (app_of KMEANS scale)));
        test_of "fig8:bfs-proposal2" (fun () ->
            ignore
              (App_common.proposal (desktop 2) (app_of BFS scale)));
        test_of "fig9:bfs-memory" (fun () ->
            ignore
              (App_common.proposal (desktop 1) (app_of BFS scale)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:4 ~quota:(Time.second 1.0) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  print_endline "== Bechamel wall-clock of the harness itself (small scale) ==";
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-28s %10.3f ms/run\n" name (est /. 1e6)
      | _ -> Printf.printf "  %-28s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let usage () =
  print_endline
    "usage: main.exe [--scale small|default|paper] [--bechamel] \
     [--smoke] \
     [--machine SPEC] \
     [all|table1|table2|fig7|fig8|fig9|chunk-sweep|dirty-levels|policy|misscheck|layout|extended|expert|contention|cluster|balance|overlap|coherence|fusion|collective|fleet|sim|scale|paper-validate]";
  exit 1

let () =
  let scale = ref Default in
  let bechamel = ref false in
  let smoke = ref false in
  let machine_override = ref None in
  let targets = ref [] in
  let rec parse = function
    | [] -> ()
    | "--machine" :: s :: rest ->
        (machine_override :=
           match Machine.spec_of_string s with
           | Ok spec -> Some spec
           | Error e ->
               prerr_endline ("bench: " ^ e);
               exit 1);
        parse rest
    | "--scale" :: s :: rest ->
        (scale :=
           match s with
           | "small" -> Small
           | "default" -> Default
           | "paper" -> Paper
           | _ -> usage ());
        parse rest
    | "--bechamel" :: rest ->
        bechamel := true;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | t :: rest ->
        targets := t :: !targets;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !bechamel then bechamel_probes ()
  else begin
    let targets = if !targets = [] then [ "all" ] else List.rev !targets in
    let scale = !scale in
    if scale = Paper then
      prerr_endline
        "note: paper-scale inputs run interpreted — MD takes minutes per variant, BFS tens of\n\
         minutes, KMEANS (494020x34x37 iterations) many hours. See EXPERIMENTS.md for recorded\n\
         paper-scale results.";
    let needs_collection =
      List.exists (fun t -> List.mem t [ "all"; "fig7"; "fig8"; "fig9" ]) targets
    in
    let collected = if needs_collection then collect scale else [] in
    List.iter
      (function
        | "all" ->
            table1 ();
            table2 scale;
            fig7 collected;
            fig8 collected;
            fig9 collected;
            chunk_sweep scale;
            dirty_levels scale;
            policy scale;
            misscheck scale;
            layout scale;
            extended scale;
            expert scale;
            contention ();
            cluster scale;
            balance ~smoke:!smoke;
            overlap_bench scale ~smoke:!smoke;
            coherence_bench scale ~smoke:!smoke;
            fusion_bench scale ~smoke:!smoke;
            collective_bench scale ~smoke:!smoke;
            fleet_bench scale ~smoke:!smoke;
            sim_bench ~smoke:!smoke ?machine_override:!machine_override ();
            scale_bench scale ~smoke:!smoke
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
        | "balance" -> balance ~smoke:!smoke
        | "overlap" -> overlap_bench scale ~smoke:!smoke
        | "coherence" -> coherence_bench scale ~smoke:!smoke
        | "fusion" -> fusion_bench scale ~smoke:!smoke
        | "collective" -> collective_bench scale ~smoke:!smoke
        | "fleet" -> fleet_bench scale ~smoke:!smoke
        | "sim" -> sim_bench ~smoke:!smoke ?machine_override:!machine_override ()
        | "scale" -> scale_bench scale ~smoke:!smoke
        | "paper-validate" -> paper_validate ()
        | _ -> usage ())
      targets
  end
