(* The runtime golden corpus: a fixed matrix of small simulated runs whose
   every simulated number is printed bit-exactly, so a refactor of the
   launch path or the accounting can prove it changed nothing.

   Per run it prints every float field of the report as [%h], the
   report's JSON (the integer counters), the blame ledger's per-category
   (exposed, hidden) sums, and an MD5 digest of the trace's
   (resource, label, start, finish, bytes) sequence in recording order.
   Span causes are left out on purpose: they are trace annotations, not
   simulated time.

   [print_golden.exe] writes the corpus; test/test_golden.ml compares a
   fresh run against the committed [corpus.golden]. *)

open Mgacc
open Mgacc_apps

type run = { name : string; lines : unit -> string list }

(* [dir/rel] for the working directory or its nearest ancestor [dir]
   that has it: the repository root, test/, and dune's copy of the tree
   under _build all find the same files. *)
let find_up rel =
  let rec find dir =
    let candidate = Filename.concat dir rel in
    if Sys.file_exists candidate then candidate
    else
      let parent = Filename.dirname dir in
      if parent = dir then failwith ("golden corpus: " ^ rel ^ " not found") else find parent
  in
  find (Sys.getcwd ())

let sample name = Filename.concat (find_up "samples") name

(* The committed corpus, and the committed digests of [pinned] below. *)
let corpus_file () = find_up (Filename.concat "test" (Filename.concat "golden" "corpus.golden"))
let pinned_file () = find_up (Filename.concat "test" (Filename.concat "golden" "pinned.golden"))

let report_lines (r : Report.t) =
  [
    Printf.sprintf "floats total=%h kernel=%h cpu_gpu=%h gpu_gpu=%h overhead=%h" r.Report.total_time
      r.Report.kernel_time r.Report.cpu_gpu_time r.Report.gpu_gpu_time r.Report.overhead_time;
    Printf.sprintf "floats imbalance=%h hidden=%h queue=%h" r.Report.mean_imbalance
      r.Report.hidden_seconds r.Report.queue_seconds;
    Printf.sprintf "ints fused=%d contracted=%d relayouts=%d" r.Report.fused_kernels
      r.Report.contracted_arrays r.Report.relayouts;
    "json " ^ Report.to_json { r with Report.blame = None };
  ]

let blame_lines (r : Report.t) =
  match r.Report.blame with
  | None -> []
  | Some s ->
      List.map
        (fun (cat, exposed, hidden) ->
          Printf.sprintf "blame %s exposed=%h hidden=%h" (Blame.category_label cat) exposed hidden)
        s.Blame.s_categories

let trace_line what trace =
  let b = Buffer.create 4096 in
  let spans = Trace.spans trace in
  List.iter
    (fun (s : Trace.span) ->
      Printf.bprintf b "%s\t%s\t%h\t%h\t%d\n" s.Trace.resource s.Trace.label s.Trace.start
        s.Trace.finish s.Trace.bytes)
    spans;
  Printf.sprintf "%s spans=%d digest=%s" what (List.length spans)
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let machine_of spec =
  match Machine.spec_of_string spec with
  | Ok s -> Machine.of_spec s
  | Error e -> failwith e

(* A setting is a (switch, spelling) pair, applied as [accc run
   --switch spelling] would; [schedule] is the one that is not a
   [Rt_config] switch. *)
let apply cfg (name, value) =
  let set =
    if name = "schedule" then
      Result.map (fun schedule -> { cfg with Rt_config.schedule }) (Sched_policy.of_string value)
    else Rt_config.set cfg name value
  in
  match set with Ok cfg -> cfg | Error e -> failwith e

(* One runtime run through [Acc_runtime.run] (what [accc run] does),
   named after the settings it applies. *)
let acc label ~spec settings program =
  {
    name = String.concat " " (label :: List.map (fun (n, v) -> n ^ "=" ^ v) settings);
    lines =
      (fun () ->
        let config = List.fold_left apply (Rt_config.make (machine_of spec)) settings in
        let _, r = run_acc ~config ~with_blame:true (program ()) in
        let trace = config.Rt_config.machine.Machine.trace in
        report_lines r @ blame_lines r @ [ trace_line "trace" trace ]);
  }

let app_program app () = parse_string ~name:(app.App_common.name ^ ".c") app.App_common.source

(* samples/heat2d.c shrunk from 256x256 to 64x64 to keep the corpus fast. *)
let heat2d () =
  let source = In_channel.with_open_bin (sample "heat2d.c") In_channel.input_all in
  let shrink decl source =
    match Str.search_forward (Str.regexp_string (decl ^ " = 256;")) source 0 with
    | _ -> Str.replace_first (Str.regexp_string (decl ^ " = 256;")) (decl ^ " = 64;") source
    | exception Not_found -> failwith ("golden corpus: heat2d.c lost " ^ decl)
  in
  parse_string ~name:"heat2d.c" (shrink "int cols" (shrink "int rows" source))

let programs =
  [
    ("md", app_program (Md.app { Md.atoms = 160; max_neighbors = 8; seed = 17 }));
    ( "kmeans",
      app_program
        (Kmeans.app { Kmeans.points = 400; features = 4; clusters = 3; iterations = 3; seed = 11 })
    );
    ("bfs", app_program (Bfs.app { Bfs.nodes = 1500; max_degree = 6; seed = 5 }));
    ("spmv", app_program (Spmv.app { Spmv.rows = 384; width = 6; iterations = 3; seed = 7 }));
    ("heat2d", heat2d);
  ]

(* A loop whose [if] clause is false sends it to the host between two
   device loops: flush, host execution, reload. *)
let if_false_source =
  {|void main() {
  int n = 4096;
  int on = 0;
  double a[n];
  double b[n];
  int i;
  for (i = 0; i < n; i++) { a[i] = 1.0 * (i % 13); b[i] = 0.0; }
  #pragma acc data copy(a[0:n]) copy(b[0:n])
  {
    #pragma acc parallel loop
    for (i = 0; i < n; i++) { b[i] = a[i] * 2.0; }
    #pragma acc parallel loop if(on)
    for (i = 0; i < n; i++) { a[i] = b[i] + 1.0; }
    #pragma acc parallel loop
    for (i = 0; i < n; i++) { b[i] = a[i] + b[i]; }
  }
}
|}

(* Triangular work on a heterogeneous machine: the adaptive scheduler
   commits re-splits, which move array blocks GPU-to-GPU. *)
let skew_source =
  {|void main() {
  int n = 32768;
  double a[n];
  double b[64];
  int i;
  int t;
  for (i = 0; i < n; i++) { a[i] = 0.0; }
  for (i = 0; i < 64; i++) { b[i] = 0.5; }
  #pragma acc data copy(a[0:n]) copyin(b[0:64])
  {
    for (t = 0; t < 4; t++) {
      #pragma acc parallel loop localaccess(a: stride(1))
      for (i = 0; i < n; i++) {
        int w = (i * 64) / n;
        double s = 0.0;
        int k;
        for (k = 0; k < w; k++) { s = s + b[k]; }
        a[i] = a[i] + s;
      }
    }
  }
}
|}

(* An array reduction read back by the next device loop: under lazy
   coherence on more than two GPUs the result ships down a binomial tree
   whose edges carry their round. *)
let tree_source =
  {|void main() {
  int n = 4096;
  int bins = 64;
  double hist[bins];
  double x[n];
  double y[n];
  int i;
  int it;
  for (i = 0; i < bins; i++) { hist[i] = 0.0; }
  for (i = 0; i < n; i++) { x[i] = 1.0 * (i % 97); y[i] = 0.0; }
  #pragma acc data copy(hist[0:bins]) copyin(x[0:n]) copy(y[0:n])
  {
    for (it = 0; it < 2; it++) {
      #pragma acc parallel loop
      for (i = 0; i < n; i++) {
        int b = (i * 7 + it) % bins;
        #pragma acc reductiontoarray(+: hist)
        hist[b] += x[i];
      }
      #pragma acc parallel loop
      for (i = 0; i < n; i++) { y[i] = y[i] + hist[i % bins] * 0.001; }
    }
  }
}
|}

let spellings name =
  (List.find (fun s -> s.Rt_config.name = name) Rt_config.switches).Rt_config.spellings

let matrix =
  List.concat_map
    (fun (pname, program) ->
      List.concat_map
        (fun spec ->
          List.concat_map
            (fun ov ->
              List.concat_map
                (fun coh ->
                  List.map
                    (fun coll ->
                      acc (pname ^ " " ^ spec) ~spec
                        [ ("overlap", ov); ("coherence", coh); ("collective", coll) ]
                        program)
                    [ "direct"; "auto" ])
                (spellings "coherence"))
            (spellings "overlap"))
        [ "desktop"; "cluster:2x2" ])
    programs

let program_named n = List.assoc n programs

(* Each extra run under both launch gates, overlap named last. *)
let extras =
  let both label ~spec settings program =
    List.map
      (fun o -> acc label ~spec (settings @ [ ("overlap", o) ]) program)
      (spellings "overlap")
  in
  let source name text () = parse_string ~name text in
  List.concat
    [
      both "fusionable-md desktop" ~spec:"desktop" [ ("fuse", "on") ]
        (app_program (Fusionable.md { Fusionable.particles = 2000; steps = 3 }));
      both "fusionable-kmeans desktop" ~spec:"desktop" [ ("fuse", "on") ]
        (app_program
           (Fusionable.kmeans { Fusionable.points = 2000; clusters = 3; iterations = 3 }));
      both "spmv cluster:2x2" ~spec:"cluster:2x2" [ ("collective", "ring") ] (program_named "spmv");
      both "spmv cluster:2x4 rows=8192" ~spec:"cluster:2x4" [ ("collective", "auto") ]
        (app_program (Spmv.app { Spmv.rows = 8192; width = 4; iterations = 2; seed = 7 }));
      both "heat2d cluster:2x2" ~spec:"cluster:2x2" [ ("decomp", "2d") ] (program_named "heat2d");
      both "bfs desktop-mixed" ~spec:"desktop-mixed" [ ("schedule", "adaptive") ]
        (program_named "bfs");
      both "skew desktop-mixed" ~spec:"desktop-mixed" [ ("schedule", "adaptive") ]
        (source "skew.c" skew_source);
      both "tree cluster:2x2" ~spec:"cluster:2x2"
        [ ("coherence", "lazy"); ("collective", "direct") ]
        (source "tree.c" tree_source);
      both "tree cluster:2x2" ~spec:"cluster:2x2"
        [ ("coherence", "lazy"); ("collective", "auto") ]
        (source "tree.c" tree_source);
      both "if-false desktop" ~spec:"desktop" [] (source "if_false.c" if_false_source);
      (* Lazy coherence at 16 GPUs: bfs reads [levels] through
         data-dependent indices, so every writer's scattered runs
         broadcast to 15 peers. *)
      both "bfs fattree:4x4" ~spec:"fattree:4x4"
        [ ("coherence", "lazy"); ("collective", "direct") ]
        (program_named "bfs");
      both "bfs fattree:4x4" ~spec:"fattree:4x4"
        [ ("coherence", "lazy"); ("collective", "auto") ]
        (program_named "bfs");
      (* The same two programs under eager coherence: the reduction
         result's star broadcast to three peers, and every writer's dirty
         chunks broadcast to 15 peers. *)
      both "tree cluster:2x2" ~spec:"cluster:2x2"
        [ ("coherence", "eager"); ("collective", "direct") ]
        (source "tree.c" tree_source);
      both "tree cluster:2x2" ~spec:"cluster:2x2"
        [ ("coherence", "eager"); ("collective", "auto") ]
        (source "tree.c" tree_source);
      both "bfs fattree:4x4" ~spec:"fattree:4x4"
        [ ("coherence", "eager"); ("collective", "direct") ]
        (program_named "bfs");
      both "bfs fattree:4x4" ~spec:"fattree:4x4"
        [ ("coherence", "eager"); ("collective", "auto") ]
        (program_named "bfs");
      (* 64 GPUs: spmv's hierarchical broadcasts put about a thousand
         flows in one fabric batch, so the digest pins the resource
         names, labels and times of batches that large. *)
      both "spmv fattree:16x4 rows=2048" ~spec:"fattree:16x4"
        [ ("coherence", "eager"); ("collective", "auto") ]
        (app_program (Spmv.app { Spmv.rows = 2048; width = 4; iterations = 2; seed = 7 }));
    ]

(* One replay of the sample job trace on a shared desktop, three jobs
   admitted at once so sessions contend for the devices. *)
let fleet =
  {
    name = "fleet samples/fleet.trace desktop max-concurrent=3";
    lines =
      (fun () ->
        let machine = Machine.desktop () in
        let config = Fleet.configure ~max_concurrent:3 machine in
        let outcome = Fleet.run config (Fleet_job.load_trace (sample "fleet.trace")) in
        List.concat_map
          (fun (r : Fleet.job_result) ->
            Printf.sprintf "job %d" r.Fleet.spec.Fleet_job.id :: report_lines r.Fleet.report)
          outcome.Fleet.jobs
        @ [
            trace_line "fleet-trace" outcome.Fleet.trace; trace_line "trace" machine.Machine.trace;
          ]);
  }

(* The hand-written CUDA baselines and the OpenMP baseline charge the
   profiler directly; pin them too. *)
let baselines =
  [
    {
      name = "cuda md";
      lines =
        (fun () ->
          report_lines
            (snd (Md.run_cuda ~machine:(Machine.desktop ()) { Md.atoms = 160; max_neighbors = 8; seed = 17 })));
    };
    {
      name = "cuda kmeans";
      lines =
        (fun () ->
          let _, _, r =
            Kmeans.run_cuda ~machine:(Machine.desktop ())
              { Kmeans.points = 400; features = 4; clusters = 3; iterations = 3; seed = 11 }
          in
          report_lines r);
    };
    {
      name = "cuda bfs";
      lines =
        (fun () ->
          report_lines
            (snd (Bfs.run_cuda ~machine:(Machine.desktop ()) { Bfs.nodes = 1500; max_degree = 6; seed = 5 })));
    };
    {
      name = "openmp heat2d";
      lines =
        (fun () ->
          report_lines (snd (run_openmp ~machine:(Machine.desktop ()) (heat2d ()))));
    };
  ]

let runs = matrix @ extras @ [ fleet ] @ baselines

(* The corpus as (run name, lines) blocks, in a fixed order. *)
let blocks () = List.map (fun r -> (r.name, r.lines ())) runs

(* What the corpus leaves out: the whole Chrome trace (span ids, causes
   and flow events) and the blame summary's JSON (critical path and
   per-label rows), as digests, for the smoke inputs of three of the
   end-to-end benchmark's workloads: spmv on 64 GPUs under auto
   collectives, bfs on 16 GPUs tuned (lazy coherence, auto collectives,
   overlap, fusion), and kmeans on the 2-GPU desktop. *)
let pinned_run label ~spec settings program =
  {
    name = String.concat " " (label :: spec :: List.map (fun (n, v) -> n ^ "=" ^ v) settings);
    lines =
      (fun () ->
        let config = List.fold_left apply (Rt_config.make (machine_of spec)) settings in
        let _, r = run_acc ~config ~with_blame:true (program ()) in
        let chrome = Trace.to_chrome_json config.Rt_config.machine.Machine.trace in
        let blame = match r.Report.blame with Some b -> Blame.to_json b | None -> "" in
        let digest s = Digest.to_hex (Digest.string s) in
        [
          Printf.sprintf "chrome bytes=%d digest=%s" (String.length chrome) (digest chrome);
          Printf.sprintf "blame bytes=%d digest=%s" (String.length blame) (digest blame);
        ]);
  }

let pinned =
  [
    pinned_run "spmv" ~spec:"fattree:16x4"
      [ ("collective", "auto") ]
      (app_program (Spmv.app { Spmv.rows = 600; width = 6; iterations = 2; seed = 19 }));
    pinned_run "bfs" ~spec:"fattree:4x4"
      [ ("coherence", "lazy"); ("collective", "auto"); ("overlap", "on"); ("fuse", "on") ]
      (app_program (Bfs.app { Bfs.nodes = 600; max_degree = 6; seed = 5 }));
    pinned_run "kmeans" ~spec:"desktop" []
      (app_program
         (Kmeans.app { Kmeans.points = 300; features = 8; clusters = 5; iterations = 2; seed = 11 }));
  ]

(* Two programs that run transfers outside the runtime, as digests of
   what they print: md's multi-GPU CUDA baseline (the test suite's
   [md_small]) as [Report.to_json], and [accc serve samples/fleet.trace
   --json] (its defaults: a cluster, FIFO, one job at a time, warm
   pools), with the machine trace that holds the fleet's spills. *)
let digest_line what s =
  Printf.sprintf "%s bytes=%d digest=%s" what (String.length s) (Digest.to_hex (Digest.string s))

let md_cuda_multi gpus =
  {
    name = Printf.sprintf "cuda-multi md desktop gpus=%d" gpus;
    lines =
      (fun () ->
        let machine = Machine.desktop () in
        let _, r =
          Md.run_cuda_multi ~machine ~gpus { Md.atoms = 400; max_neighbors = 8; seed = 17 }
        in
        [ digest_line "json" (Report.to_json r); trace_line "trace" machine.Machine.trace ]);
  }

let serve_fleet =
  {
    name = "serve samples/fleet.trace --json";
    lines =
      (fun () ->
        let machine = machine_of "cluster" in
        let policy = Result.get_ok (Fleet.policy_of_string "fifo") in
        let config = Fleet.configure ~policy ~max_concurrent:1 ~keep_warm:true machine in
        let outcome = Fleet.run config (Fleet_job.load_trace (sample "fleet.trace")) in
        [ digest_line "json" (Fleet.to_json outcome); trace_line "trace" machine.Machine.trace ]);
  }

let pinned = pinned @ [ md_cuda_multi 1; md_cuda_multi 2; serve_fleet ]

let pinned_blocks () = List.map (fun r -> (r.name, r.lines ())) pinned

let render blocks =
  let b = Buffer.create 65536 in
  List.iter
    (fun (name, lines) ->
      Printf.bprintf b "run %s\n" name;
      List.iter (fun l -> Printf.bprintf b "  %s\n" l) lines)
    blocks;
  Buffer.contents b

(* Parse [render]'s output back into blocks (for reporting the first
   differing run). *)
let parse text =
  let rec go acc cur = function
    | [] -> List.rev (match cur with Some (n, ls) -> (n, List.rev ls) :: acc | None -> acc)
    | line :: rest when String.length line > 4 && String.sub line 0 4 = "run " ->
        let acc = match cur with Some (n, ls) -> (n, List.rev ls) :: acc | None -> acc in
        go acc (Some (String.sub line 4 (String.length line - 4), [])) rest
    | "" :: rest -> go acc cur rest
    | line :: rest -> (
        let l = if String.length line > 2 then String.sub line 2 (String.length line - 2) else line in
        match cur with Some (n, ls) -> go acc (Some (n, l :: ls)) rest | None -> go acc cur rest)
  in
  go [] None (String.split_on_char '\n' text)
