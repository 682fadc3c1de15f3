(* Tests for the translator's cost-model-guided fusion pass (--fuse on):
   the off-switch identity guarantee, functional equivalence on generated
   straight-line programs, one unit test per legality/profitability
   rejection rule, temporary contraction on the fusion-friendly apps,
   plan-cache non-aliasing of fused vs unfused plans, transparency of the
   consumer-lookahead memo tables, and the fused span labels the blame
   pass attributes through. See docs/FUSION.md. *)

open Mgacc_apps
module Kernel_plan = Mgacc.Kernel_plan
module Program_plan = Mgacc.Program_plan
module Plan_cache = Mgacc_fleet.Plan_cache
module Rt_config = Mgacc.Rt_config

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let cluster4 () = Mgacc.Machine.cluster ~nodes:2 ~gpus_per_node:2 ()
let fuse_on = { Kernel_plan.default_options with Kernel_plan.enable_fusion = true }
let plan_src ?(options = fuse_on) src =
  Mgacc.compile ~options (Mgacc.parse_string ~name:"fuse.c" src)

let md_small = Fusionable.md { Fusionable.particles = 4000; steps = 3 }

let kmeans_small =
  Fusionable.kmeans { Fusionable.points = 2000; clusters = 4; iterations = 2 }

(* ---------------- functional equivalence (property) ---------------- *)

(* Three-loop chains over shared arrays. Shape 0 is fully fusable;
   shape 1 reads across the seam (b[i+1]: legality must refuse and fall
   back to three kernels); shape 2 mismatches the iteration spaces. In
   every case --fuse on must produce bitwise-identical host arrays. *)
let program_of (n, k, shape) =
  let m = n / 2 in
  let second_header, second_read =
    match shape mod 3 with
    | 0 -> ("i = 0; i < n; i++", "b[i]")
    | 1 -> ("i = 0; i < n; i++", "b[i + 1]")
    | _ -> (Printf.sprintf "i = 0; i < %d; i++" m, "b[i]")
  in
  Printf.sprintf
    {|void main() {
  int n = %d;
  double a[n + 1]; double b[n + 1]; double c[n + 1]; int i;
  for (i = 0; i < n + 1; i++) { a[i] = 0.25 * i + 1.0; b[i] = 0.5; c[i] = 0.0; }
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { b[i] = a[i] * %d.0 + 1.5; }
  #pragma acc parallel loop
  for (%s) { c[i] = %s + a[i]; }
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { a[i] = c[i] * 0.5; }
}|}
    n k second_header second_read

let run_fused ~fuse ~num_gpus source =
  let program = Mgacc.parse_string ~name:"gen.c" source in
  let machine = Mgacc.Machine.supernode () in
  let translator = { Kernel_plan.default_options with Kernel_plan.enable_fusion = fuse } in
  let config = Rt_config.make ~num_gpus ~translator machine in
  let env, _ = Mgacc.run_acc ~config program in
  List.map (fun a -> Mgacc.float_results env a) [ "a"; "b"; "c" ]

let gen_case =
  QCheck2.Gen.(
    int_range 16 200 >>= fun n ->
    int_range 2 9 >>= fun k ->
    int_range 0 1000 >>= fun shape -> return (n, k, shape))

let test_qcheck_fused_equals_unfused =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"--fuse on == off element-wise on loop chains"
       gen_case (fun ((_, _, shape) as case) ->
         let src = program_of case in
         let gpus = 2 + (shape mod 2) in
         let off = run_fused ~fuse:false ~num_gpus:gpus src in
         let on = run_fused ~fuse:true ~num_gpus:gpus src in
         List.for_all2 (fun a b -> Array.for_all2 Float.equal a b) off on))

(* ---------------- legality and profitability rejections ---------------- *)

let fusable_pair =
  {|void main() {
  int n = 1000;
  double a[n]; double b[n]; double c[n]; int i;
  for (i = 0; i < n; i++) { a[i] = i * 0.5; }
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { b[i] = a[i] * 2.0; }
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { c[i] = b[i] + 1.0; }
}|}

let test_fuses_compatible_pair () =
  check Alcotest.int "two compatible maps become one kernel" 1
    (Program_plan.loop_count (plan_src fusable_pair));
  (* and the pass is inert when the flag is off *)
  check Alcotest.int "flag off: two kernels" 2
    (Program_plan.loop_count (plan_src ~options:Kernel_plan.default_options fusable_pair))

let test_rejects_mismatched_bounds () =
  let src =
    {|void main() {
  int n = 1000;
  double a[n]; double b[n]; double c[n]; int i;
  for (i = 0; i < n; i++) { a[i] = i * 0.5; }
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { b[i] = a[i] * 2.0; }
  #pragma acc parallel loop
  for (i = 0; i < n / 2; i++) { c[i] = b[i] + 1.0; }
}|}
  in
  check Alcotest.int "different iteration spaces stay separate" 2
    (Program_plan.loop_count (plan_src src))

let test_rejects_seam_dependence () =
  let src =
    {|void main() {
  int n = 1000;
  double a[n + 1]; double b[n + 1]; double c[n + 1]; int i;
  for (i = 0; i < n + 1; i++) { a[i] = i * 0.5; b[i] = 0.0; }
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { b[i] = a[i] * 2.0; }
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { c[i] = b[i + 1] + 1.0; }
}|}
  in
  check Alcotest.int "cross-iteration seam read stays separate" 2
    (Program_plan.loop_count (plan_src src))

let test_rejects_reduction_mix () =
  let src =
    {|void main() {
  int n = 1000;
  double a[n]; double b[n]; double s; int i;
  s = 0.0;
  for (i = 0; i < n; i++) { a[i] = i * 0.5; }
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { b[i] = a[i] * 2.0; }
  #pragma acc parallel loop reduction(+: s)
  for (i = 0; i < n; i++) { s = s + b[i]; }
}|}
  in
  check Alcotest.int "reduction loop never joins a plain map" 2
    (Program_plan.loop_count (plan_src src))

let test_rejects_oversized_body () =
  (* Each body alone fits the op budget; fused they blow past it, and at
     1000 literal iterations the occupancy penalty dwarfs the saved
     launch — the cost model must refuse. *)
  let big_rhs =
    String.concat " + " (List.init 24 (fun j -> Printf.sprintf "a[i] * %d.0" (j + 1)))
  in
  let src =
    Printf.sprintf
      {|void main() {
  int n = 1000;
  double a[n]; double b[n]; double c[n]; int i;
  for (i = 0; i < n; i++) { a[i] = i * 0.5; }
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { b[i] = %s; }
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { c[i] = b[i] + %s; }
}|}
      big_rhs big_rhs
  in
  let plans = plan_src src in
  check Alcotest.int "oversized fused body rejected by the cost model" 2
    (Program_plan.loop_count plans)

(* ---------------- contraction on the fusion-friendly apps ---------------- *)

let test_md_contracts_acc3 () =
  let plans = plan_src md_small.App_common.source in
  check (Alcotest.list Alcotest.string) "acc3 scalarized away" [ "acc3" ]
    (Program_plan.contracted_arrays plans);
  let reference = App_common.sequential md_small in
  let env, r =
    App_common.proposal (Rt_config.make ~num_gpus:4 ~translator:fuse_on (cluster4 ())) md_small
  in
  App_common.check_exn md_small ~against:reference env;
  check Alcotest.int "one temporary contracted" 1 r.Mgacc.Report.contracted_arrays;
  check Alcotest.bool "launches saved" true (r.Mgacc.Report.fused_kernels > 0)

let test_kmeans_contracts_and_relayouts () =
  let plans = plan_src kmeans_small.App_common.source in
  check (Alcotest.list Alcotest.string) "bestd/bestc scalarized away" [ "bestd"; "bestc" ]
    (Program_plan.contracted_arrays plans);
  let reference = App_common.sequential kmeans_small in
  let env, r =
    App_common.proposal (Rt_config.make ~num_gpus:4 ~translator:fuse_on (cluster4 ())) kmeans_small
  in
  App_common.check_exn kmeans_small ~against:reference env;
  check Alcotest.int "both temporaries contracted" 2 r.Mgacc.Report.contracted_arrays;
  check Alcotest.int "point matrix repacked once" 1 r.Mgacc.Report.relayouts

(* ---------------- the off-switch identity guarantee ---------------- *)

let count_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub s i m = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_fuse_off_is_pinned () =
  (* No flag at all vs an explicit --fuse off: byte-identical reports,
     and the fusion sub-object never appears. *)
  let _, r_default = App_common.proposal (Rt_config.make ~num_gpus:4 (cluster4 ())) md_small in
  let explicit_off = Rt_config.set (Rt_config.make ~num_gpus:4 (cluster4 ())) "fuse" "off" in
  let _, r_off = App_common.proposal (Result.get_ok explicit_off) md_small in
  check Alcotest.string "byte-identical report JSON" (Mgacc.Report.to_json r_default)
    (Mgacc.Report.to_json r_off);
  check Alcotest.int "no fusion key when off" 0
    (count_sub (Mgacc.Report.to_json r_default) {|"fusion"|})

let test_fuse_on_inert_without_opportunity () =
  (* An app with no adjacent bare loops (BFS alternates frontier loops
     with different bodies under clauses) must be untouched: --fuse on
     reproduces the off timings byte for byte. *)
  let bfs = Bfs.app { Bfs.nodes = 6000; max_degree = 8; seed = 5 } in
  let _, r_off = App_common.proposal (Rt_config.make ~num_gpus:4 (cluster4 ())) bfs in
  let _, r_on =
    App_common.proposal (Rt_config.make ~num_gpus:4 ~translator:fuse_on (cluster4 ())) bfs
  in
  check Alcotest.string "no opportunity: identical report JSON" (Mgacc.Report.to_json r_off)
    (Mgacc.Report.to_json r_on)

(* ---------------- plan-cache keying ---------------- *)

let test_plan_cache_never_aliases_fusion () =
  let cache = Plan_cache.create () in
  let src = fusable_pair in
  let e_off, hit_off = Plan_cache.lookup ~options:Kernel_plan.default_options cache src in
  check Alcotest.bool "first lookup misses" false hit_off;
  let e_on, hit_on = Plan_cache.lookup ~options:fuse_on cache src in
  check Alcotest.bool "fused options never reuse the unfused entry" false hit_on;
  check Alcotest.int "two distinct entries" 2 (Plan_cache.size cache);
  check Alcotest.bool "distinct entries" true (e_off != e_on);
  check Alcotest.int "unfused entry: two kernels" 2
    (Program_plan.loop_count e_off.Plan_cache.plans);
  check Alcotest.int "fused entry: one kernel" 1
    (Program_plan.loop_count e_on.Plan_cache.plans);
  (* and a repeat of each is a hit on its own entry *)
  let e_off2, hit2 = Plan_cache.lookup ~options:Kernel_plan.default_options cache src in
  check Alcotest.bool "unfused repeat hits" true hit2;
  check Alcotest.bool "physically the same plan" true (e_off2.Plan_cache.plans == e_off.Plan_cache.plans)

(* ---------------- lookahead memo transparency ---------------- *)

let five_apps =
  [
    Bfs.app { Bfs.nodes = 6000; max_degree = 8; seed = 5 };
    Kmeans.app { Kmeans.points = 2000; features = 8; clusters = 4; iterations = 3; seed = 11 };
    Md.app { Md.atoms = 300; max_neighbors = 8; seed = 17 };
    Spmv.app { Spmv.rows = 2000; width = 8; iterations = 3; seed = 19 };
    Montecarlo.app { Montecarlo.paths = 2000; steps = 6; bins = 32; seed = 29 };
  ]

let test_lookahead_memo_is_transparent () =
  (* The memoized consumer-lookahead summaries must equal the uncached
     computation for every (plan, array) pair of the five paper apps,
     and stay stable across repeated calls. *)
  List.iter
    (fun app ->
      let plans = Mgacc.compile (Mgacc.parse_string ~name:"app.c" app.App_common.source) in
      List.iter
        (fun plan ->
          let after = plan.Kernel_plan.loop.Mgacc_analysis.Loop_info.loop_loc in
          List.iter
            (fun (acc : Mgacc_analysis.Access.array_access) ->
              let array = acc.Mgacc_analysis.Access.array in
              let w1 = Program_plan.read_window_of plan ~array in
              let w_raw = Program_plan.read_window_of_uncached plan ~array in
              if w1 <> w_raw then
                Alcotest.failf "%s: read_window_of memo diverges on %s"
                  app.App_common.name array;
              if Program_plan.read_window_of plan ~array <> w1 then
                Alcotest.failf "%s: read_window_of unstable on %s" app.App_common.name array;
              let n1 = Program_plan.next_read plans ~after ~array in
              let n_raw = Program_plan.next_read_uncached plans ~after ~array in
              if n1 <> n_raw then
                Alcotest.failf "%s: next_read memo diverges on %s" app.App_common.name array;
              if Program_plan.next_read plans ~after ~array <> n1 then
                Alcotest.failf "%s: next_read unstable on %s" app.App_common.name array)
            plan.Kernel_plan.accesses)
        (Program_plan.all_plans plans))
    five_apps

let test_lazy_coherence_counters_unchanged () =
  (* Memoization must not change a single coherence decision: two
     independent lazy runs of each paper app produce byte-identical
     reports (the counters live in the JSON), and results still match
     the sequential reference. *)
  List.iter
    (fun app ->
      let reference = App_common.sequential app in
      let env1, r1 =
        App_common.proposal (Rt_config.make ~coherence:Rt_config.Lazy ~num_gpus:4 (cluster4 ())) app
      in
      let _, r2 =
        App_common.proposal (Rt_config.make ~coherence:Rt_config.Lazy ~num_gpus:4 (cluster4 ())) app
      in
      App_common.check_exn app ~against:reference env1;
      check Alcotest.string
        (app.App_common.name ^ ": bit-identical coherence counters")
        (Mgacc.Report.to_json r1) (Mgacc.Report.to_json r2))
    five_apps

(* ---------------- fused span labels ---------------- *)

let test_fused_labels_name_members () =
  (* The fused kernel's launch spans carry the constituent source-loop
     ids ("loop0+1+2"), so traces and --blame keep attributing time to
     the loops the programmer wrote. *)
  let machine = cluster4 () in
  let translator = fuse_on in
  let config = Rt_config.make ~num_gpus:4 ~translator machine in
  let program = Mgacc.parse_string ~name:"md.c" md_small.App_common.source in
  let _ = Mgacc.run_acc ~config program in
  let labels =
    List.filter_map
      (fun (sp : Mgacc_sim.Trace.span) ->
        if sp.Mgacc_sim.Trace.category = Mgacc_sim.Trace.Kernel then
          Some sp.Mgacc_sim.Trace.label
        else None)
      (Mgacc_sim.Trace.spans machine.Mgacc.Machine.trace)
  in
  check Alcotest.bool "fused label present" true (List.mem "loop0+1+2" labels);
  (* none of the constituent kernels launch on their own *)
  List.iter
    (fun solo ->
      check Alcotest.bool (solo ^ " absent") false (List.mem solo labels))
    [ "loop0"; "loop1"; "loop2" ]

let test_relayout_span_charged () =
  let machine = cluster4 () in
  let config = Rt_config.make ~num_gpus:4 ~translator:fuse_on machine in
  let program = Mgacc.parse_string ~name:"km.c" kmeans_small.App_common.source in
  let _ = Mgacc.run_acc ~config program in
  let relayouts =
    List.filter
      (fun (sp : Mgacc_sim.Trace.span) -> sp.Mgacc_sim.Trace.label = "relayout:x")
      (Mgacc_sim.Trace.spans machine.Mgacc.Machine.trace)
  in
  check Alcotest.int "one repack span per GPU, charged once" 4 (List.length relayouts)

let suite =
  [
    test_qcheck_fused_equals_unfused;
    tc "legality: compatible pair fuses (and off-switch is inert)" test_fuses_compatible_pair;
    tc "legality: mismatched bounds rejected" test_rejects_mismatched_bounds;
    tc "legality: seam dependence rejected" test_rejects_seam_dependence;
    tc "legality: reduction/map mix rejected" test_rejects_reduction_mix;
    tc "profitability: oversized body rejected" test_rejects_oversized_body;
    tc "contraction: md's acc3 vanishes" test_md_contracts_acc3;
    tc "contraction + relayout: kmeans" test_kmeans_contracts_and_relayouts;
    tc "--fuse off is byte-identical to no flag" test_fuse_off_is_pinned;
    tc "--fuse on inert without opportunity" test_fuse_on_inert_without_opportunity;
    tc "plan cache: fused and unfused never alias" test_plan_cache_never_aliases_fusion;
    tc "lookahead memo tables are transparent" test_lookahead_memo_is_transparent;
    tc "lazy coherence counters unchanged by memoization" test_lazy_coherence_counters_unchanged;
    tc "fused spans carry member labels" test_fused_labels_name_members;
    tc "relayout repack charged once per GPU" test_relayout_span_charged;
  ]
