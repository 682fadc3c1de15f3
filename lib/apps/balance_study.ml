open Mgacc

type row = {
  app : string;
  policy : Sched_policy.t;
  report : Report.t;
  ok : bool;
}

(* Smoke sizes keep the interpreted run fast but stay above the occupancy
   saturation point (~cores x latency factor threads): below it the
   roofline charges the same duration to any split and weighted
   partitioning has nothing to win. *)
let md_params ~smoke =
  if smoke then { Md.atoms = 9000; max_neighbors = 8; seed = 42 } else Md.default_params

let kmeans_params ~smoke =
  if smoke then { Kmeans.points = 8000; features = 8; clusters = 4; iterations = 3; seed = 11 }
  else Kmeans.default_params

let bfs_params ~smoke =
  if smoke then { Bfs.nodes = 12000; max_degree = 8; seed = 5 } else Bfs.default_params

let apps ~smoke =
  [
    Md.app (md_params ~smoke);
    Kmeans.app (kmeans_params ~smoke);
    Bfs.app (bfs_params ~smoke);
  ]

let policies = [ Sched_policy.Equal; Sched_policy.Proportional; Sched_policy.Adaptive ]

let run ?(smoke = false) ?machine () =
  let fresh () = match machine with Some m -> m | None -> Machine.desktop_mixed () in
  List.concat_map
    (fun app ->
      let reference = App_common.sequential app in
      List.map
        (fun policy ->
          let machine = fresh () in
          Machine.reset machine;
          let config = Rt_config.make ~schedule:policy machine in
          let env, report =
            run_acc
              ~variant:(Printf.sprintf "%s(%s)" app.App_common.name (Sched_policy.to_string policy))
              ~config
              (parse_string ~name:(app.App_common.name ^ ".c") app.App_common.source)
          in
          let ok = App_common.verify app ~against:reference env = Ok () in
          { app = app.App_common.name; policy; report; ok })
        policies)
    (apps ~smoke)

let print rows =
  let t =
    Table.create
      ~headers:
        [
          "app"; "schedule"; "total"; "KERNELS"; "CPU-GPU"; "GPU-GPU"; "rebal"; "imbal"; "results";
        ]
  in
  let last_app = ref "" in
  List.iter
    (fun r ->
      if !last_app <> "" && !last_app <> r.app then Table.add_separator t;
      last_app := r.app;
      Table.add_row t
        [
          r.app;
          Sched_policy.to_string r.policy;
          Printf.sprintf "%.6fs" r.report.Report.total_time;
          Printf.sprintf "%.6fs" r.report.Report.kernel_time;
          Printf.sprintf "%.6fs" r.report.Report.cpu_gpu_time;
          Printf.sprintf "%.6fs" r.report.Report.gpu_gpu_time;
          string_of_int r.report.Report.rebalances;
          Printf.sprintf "%.3f" r.report.Report.mean_imbalance;
          (if r.ok then "ok" else "MISMATCH");
        ])
    rows;
  Table.print t
