(* Tests for demand-driven inter-GPU coherence (--coherence lazy): the
   off-switch identity guarantee, functional equivalence with the eager
   protocol on whole applications and on generated affine programs, and
   the traffic behaviors the protocol exists for — window-limited dirty
   shipping, deferral of unread reduction results, on-demand pulls and
   the binomial broadcast tree. See docs/COHERENCE.md. *)

open Mgacc_apps
module Rt_config = Mgacc.Rt_config

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let desktop () = Mgacc.Machine.desktop ()
let supernode () = Mgacc.Machine.supernode ()
let cluster4 () = Mgacc.Machine.cluster ~nodes:2 ~gpus_per_node:2 ()

let bfs_small = Bfs.app { Bfs.nodes = 12000; max_degree = 10; seed = 5 }

let kmeans_small =
  Kmeans.app { Kmeans.points = 4000; features = 12; clusters = 5; iterations = 6; seed = 11 }

let md_small = Md.app { Md.atoms = 400; max_neighbors = 8; seed = 17 }
let spmv_small = Spmv.app { Spmv.rows = 3000; width = 8; iterations = 4; seed = 19 }
let mc_small = Montecarlo.app { Montecarlo.paths = 3000; steps = 8; bins = 32; seed = 29 }
let five_apps = [ bfs_small; kmeans_small; md_small; spmv_small; mc_small ]

(* ---------------- whole-application equivalence ---------------- *)

let test_lazy_results_match_sequential () =
  (* Lazy coherence defers and re-routes transfers but every element a
     kernel or the host reads must be valid by then: all five apps must
     match the sequential reference exactly, under barrier and overlap
     execution. *)
  List.iter
    (fun app ->
      let reference = App_common.sequential app in
      let env, _ =
        App_common.proposal (Rt_config.make ~coherence:Rt_config.Lazy ~num_gpus:3 (supernode ()))
          app
      in
      App_common.check_exn app ~against:reference env;
      let env_ov, _ =
        App_common.proposal
          (Rt_config.make ~coherence:Rt_config.Lazy ~overlap:true ~num_gpus:2 (desktop ()))
          app
      in
      App_common.check_exn app ~against:reference env_ov)
    five_apps

let test_eager_is_the_default () =
  (* [--coherence eager] must be byte-for-byte the pre-protocol path: a
     run with the flag matches a run with no flag at all, down to the
     exact simulated times; and on one GPU the lazy flag is inert. *)
  let _, r_default = App_common.proposal (Rt_config.make ~num_gpus:2 (desktop ())) bfs_small in
  let _, r_eager =
    App_common.proposal (Rt_config.make ~coherence:Rt_config.Eager ~num_gpus:2 (desktop ()))
      bfs_small
  in
  check Alcotest.bool "identical total" true
    (Float.equal r_default.Mgacc.Report.total_time r_eager.Mgacc.Report.total_time);
  check Alcotest.bool "identical kernel time" true
    (Float.equal r_default.Mgacc.Report.kernel_time r_eager.Mgacc.Report.kernel_time);
  check Alcotest.bool "identical gpu-gpu time" true
    (Float.equal r_default.Mgacc.Report.gpu_gpu_time r_eager.Mgacc.Report.gpu_gpu_time);
  check Alcotest.int "identical p2p traffic" r_default.Mgacc.Report.gpu_gpu_bytes
    r_eager.Mgacc.Report.gpu_gpu_bytes;
  check Alcotest.int "identical h2d traffic" r_default.Mgacc.Report.cpu_gpu_bytes
    r_eager.Mgacc.Report.cpu_gpu_bytes;
  check Alcotest.int "eager defers nothing" 0 r_default.Mgacc.Report.coh_deferred_bytes;
  let _, r1 = App_common.proposal (Rt_config.make ~num_gpus:1 (desktop ())) bfs_small in
  let _, r1_lazy =
    App_common.proposal (Rt_config.make ~coherence:Rt_config.Lazy ~num_gpus:1 (desktop ()))
      bfs_small
  in
  check Alcotest.bool "single GPU: lazy is inert" true
    (Float.equal r1.Mgacc.Report.total_time r1_lazy.Mgacc.Report.total_time)

(* ---------------- generated-program equivalence (QCheck) ---------------- *)

(* Two parallel loops over replicated arrays: a strided affine writer
   (dirty runs with gaps) followed by a reader whose subscript is another
   affine form — ascending, descending or shifted. The consumer-window
   analysis may predict any subset; whatever it defers must be pulled
   before the read, so eager and lazy runs must agree element-for-element
   (exact float equality: both copy the same values, nothing is
   recomputed differently). *)
let program_of (n, stride, off, shape) =
  let m = n / stride in
  let read_expr =
    match shape mod 3 with
    | 0 -> "i" (* identity *)
    | 1 -> Printf.sprintf "%d - i" (n - 1) (* descending *)
    | _ -> Printf.sprintf "i / 2 + %d" (off mod (n / 2)) (* shifted, non-unit *)
  in
  Printf.sprintf
    {|void main() {
  int n = %d; int m = %d;
  double a[n]; double b[n]; int i;
  for (i = 0; i < n; i++) { a[i] = 0.25 * i; b[i] = 0.0; }
  #pragma acc parallel loop
  for (i = 0; i < m; i++) { a[i * %d + %d] = a[i * %d + %d] + 1.5; }
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { b[i] = a[%s] * 2.0 + 1.0; }
}|}
    n m stride off stride off read_expr

let run_program ~coherence ~num_gpus source =
  let program = Mgacc.parse_string ~name:"gen.c" source in
  let config = Rt_config.make ~num_gpus ~coherence (supernode ()) in
  let env, _ = Mgacc.run_acc ~config program in
  (Mgacc.float_results env "a", Mgacc.float_results env "b")

let gen_case =
  QCheck2.Gen.(
    int_range 16 160 >>= fun n ->
    int_range 1 4 >>= fun stride ->
    int_range 0 1000 >>= fun shape ->
    int_range 0 20 >>= fun off -> return (n, stride, off mod stride, shape))

let test_qcheck_lazy_equals_eager =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"lazy == eager element-wise on affine programs" gen_case
       (fun ((_, _, _, shape) as case) ->
         let src = program_of case in
         let gpus = 2 + (shape mod 2) in
         let ea, eb = run_program ~coherence:Rt_config.Eager ~num_gpus:gpus src in
         let la, lb = run_program ~coherence:Rt_config.Lazy ~num_gpus:gpus src in
         Array.for_all2 Float.equal ea la && Array.for_all2 Float.equal eb lb))

(* ---------------- protocol behaviors ---------------- *)

let run_src ~coherence ~num_gpus ~machine source =
  let program = Mgacc.parse_string ~name:"coh.c" source in
  let config = Rt_config.make ~num_gpus ~coherence machine in
  Mgacc.run_acc ~config program

(* An iterative two-phase program: the second time around, the consumer's
   iteration split is known, so each writer ships each destination only
   the slice of its dirty run that the destination will read. *)
let windowed_src =
  {|void main() {
  int n = 4096; int t;
  double a[n]; double b[n]; int i;
  for (i = 0; i < n; i++) { a[i] = 0.25 * i; b[i] = 0.0; }
  for (t = 0; t < 4; t++) {
    #pragma acc parallel loop
    for (i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
    #pragma acc parallel loop
    for (i = 0; i < n; i++) { b[i] = b[i] + a[i] * 0.5; }
  }
}|}

let test_window_limits_shipping () =
  let machine = supernode () in
  let _, eager = run_src ~coherence:Rt_config.Eager ~num_gpus:3 ~machine windowed_src in
  let machine = supernode () in
  let env, lz = run_src ~coherence:Rt_config.Lazy ~num_gpus:3 ~machine windowed_src in
  (* Each GPU writes and then re-reads only its own third of [a] and [b]:
     nearly all eager all-pairs traffic is deferred, and nobody ever
     pulls it back except the final copyout of replica 0. *)
  let eager_coh = eager.Mgacc.Report.coh_shipped_bytes in
  let lazy_coh = lz.Mgacc.Report.coh_shipped_bytes + lz.Mgacc.Report.coh_pulled_bytes in
  check Alcotest.bool "eager ships replicas around" true (eager_coh > 0);
  check Alcotest.bool "lazy ships under half of eager" true (lazy_coh * 2 < eager_coh);
  check Alcotest.bool "deferral happened" true (lz.Mgacc.Report.coh_deferred_bytes > 0);
  (* Results still exact: the self-owned slices never left home. *)
  let program = Mgacc.parse_string ~name:"coh.c" windowed_src in
  let ref_env = Mgacc.run_sequential program in
  Array.iteri
    (fun i v ->
      if not (Float.equal v (Mgacc.float_results env "b").(i)) then
        Alcotest.failf "b[%d]: %.17g vs %.17g" i (Mgacc.float_results ref_env "b").(i) v)
    (Mgacc.float_results ref_env "b")

(* A reduction whose result no later loop reads on device: lazy mode
   gathers the partials but defers the broadcast entirely; the bytes
   surface only in the final host copyout of replica 0. *)
let deferred_reduction_src =
  {|void main() {
  int n = 30000; int bins = 128;
  double data[n]; double hist[bins];
  int i; int seed = 7;
  for (i = 0; i < n; i++) {
    seed = (seed * 1103515245 + 12345) % 2147483648;
    data[i] = (seed % 10000) / 10000.0;
  }
  for (i = 0; i < bins; i++) { hist[i] = 0.0; }
  #pragma acc data copyin(data[0:n]) copy(hist[0:bins])
  {
    #pragma acc parallel loop localaccess(data: stride(1))
    for (i = 0; i < n; i++) {
      int b = (int)(data[i] * 128.0);
      int b2 = min(b, bins - 1);
      #pragma acc reductiontoarray(+: hist)
      hist[b2] += 1.0;
    }
  }
}|}

let test_unread_reduction_deferred () =
  let machine = supernode () in
  let _, eager =
    run_src ~coherence:Rt_config.Eager ~num_gpus:3 ~machine deferred_reduction_src
  in
  let machine = supernode () in
  let env, lz =
    run_src ~coherence:Rt_config.Lazy ~num_gpus:3 ~machine deferred_reduction_src
  in
  check Alcotest.bool "broadcast bytes deferred" true (lz.Mgacc.Report.coh_deferred_bytes > 0);
  check Alcotest.int "nothing pulled back to a device" 0 lz.Mgacc.Report.coh_pulled_bytes;
  check Alcotest.bool "lazy ships less than eager" true
    (lz.Mgacc.Report.coh_shipped_bytes < eager.Mgacc.Report.coh_shipped_bytes);
  check Alcotest.bool "something was elided outright" true
    (Mgacc.Report.coh_elided_bytes lz > 0);
  let program = Mgacc.parse_string ~name:"coh.c" deferred_reduction_src in
  let ref_env = Mgacc.run_sequential program in
  let e = Mgacc.float_results ref_env "hist" and g = Mgacc.float_results env "hist" in
  Array.iteri (fun i v -> check (Alcotest.float 1e-9) "hist bin" v g.(i)) e

(* A reduction a later loop does read: lazy mode must re-publish the
   combined result, and at 4 GPUs the binomial tree does it in two
   rounds. Exercised under both barrier and overlap execution on the
   2x2 cluster (the overlap DAG gates round r+1 on round r's arrival). *)
let consumed_reduction_src =
  {|void main() {
  int n = 20000; int bins = 64; int t;
  double data[n]; double hist[bins]; double sums[bins];
  int i; int seed = 3;
  for (i = 0; i < n; i++) {
    seed = (seed * 1103515245 + 12345) % 2147483648;
    data[i] = (seed % 10000) / 10000.0;
  }
  for (i = 0; i < bins; i++) { hist[i] = 0.0; sums[i] = 0.0; }
  for (t = 0; t < 3; t++) {
    #pragma acc parallel loop localaccess(data: stride(1))
    for (i = 0; i < n; i++) {
      int b = (int)(data[i] * 64.0);
      int b2 = min(b, bins - 1);
      #pragma acc reductiontoarray(+: hist)
      hist[b2] += 1.0;
    }
    #pragma acc parallel loop
    for (i = 0; i < bins; i++) { sums[i] = sums[i] + hist[i]; }
  }
}|}

let test_consumed_reduction_tree_bcast () =
  let run ~overlap =
    let machine = cluster4 () in
    let program = Mgacc.parse_string ~name:"coh.c" consumed_reduction_src in
    let config =
      Rt_config.make ~num_gpus:4 ~coherence:Rt_config.Lazy ~overlap machine
    in
    Mgacc.run_acc ~config program
  in
  let program = Mgacc.parse_string ~name:"coh.c" consumed_reduction_src in
  let ref_env = Mgacc.run_sequential program in
  let reference = Mgacc.float_results ref_env "sums" in
  List.iter
    (fun overlap ->
      let env, r = run ~overlap in
      check Alcotest.bool "combined result re-published" true
        (r.Mgacc.Report.coh_shipped_bytes > 0);
      let got = Mgacc.float_results env "sums" in
      Array.iteri (fun i v -> check (Alcotest.float 1e-9) "sums" v got.(i)) reference)
    [ false; true ]

(* ---------------- the lazy merge against its per-pair oracle ---------------- *)

module Interval = Mgacc_util.Interval
module Darray = Mgacc_runtime.Darray
module Dirty = Mgacc_runtime.Dirty
module Comm_manager = Mgacc_runtime.Comm_manager

(* A destination's read window, relative to writer [k]'s marks: equal to
   them, containing them, a random set (so overlapping or not), their
   complement (disjoint), nothing or everything. *)
type window_spec =
  | Equal of int
  | Containing of int * (int * int) list
  | Random of (int * int) list
  | Disjoint of int
  | Nothing
  | Everything

type merge_case = {
  gpus : int;
  n : int;
  ints : bool;
  prior : (int * int) list array;  (** each replica's valid (lo, len) runs *)
  marks : (int * int) list array;  (** each GPU's dirty (lo, len) runs *)
  window : [ `None | `All | `Same of window_spec | `Each of window_spec array ];
}

(* Dozens of single-element runs, the shape of a BFS level's writes: on
   arrays of a few hundred elements they cross 64-bit words of the dirty
   bits. *)
let scattered n = QCheck2.Gen.(list_size (int_range 12 60) (pair (int_bound (n - 1)) (pure 1)))

let gen_merge_case =
  let open QCheck2.Gen in
  let* gpus = int_range 2 6 in
  let* n = oneof [ int_range 1 200; int_range 200 600 ] in
  let runs = list_size (int_bound 6) (pair (int_bound (n - 1)) (int_range 1 40)) in
  let spec =
    let* k = int_bound (gpus - 1) in
    oneof
      [
        pure (Equal k);
        map (fun l -> Containing (k, l)) runs;
        map (fun l -> Random l) runs;
        pure (Disjoint k);
        pure Nothing;
        pure Everything;
      ]
  in
  let* ints = bool in
  (* A prior is random runs or the whole array. *)
  let* prior = array_repeat gpus (oneof [ runs; pure [ (0, n) ] ]) in
  let* marks = array_repeat gpus (oneof [ pure []; runs; scattered n ]) in
  let+ window =
    oneof
      [
        pure `None;
        pure `All;
        map (fun s -> `Same s) spec;
        map (fun ws -> `Each ws) (array_repeat gpus spec);
      ]
  in
  { gpus; n; ints; prior; marks; window }

let print_merge_case c =
  let runs l = String.concat ";" (List.map (fun (lo, len) -> Printf.sprintf "%d+%d" lo len) l) in
  let per_gpu a = String.concat " | " (Array.to_list (Array.map runs a)) in
  let spec = function
    | Equal k -> Printf.sprintf "equal %d" k
    | Containing (k, l) -> Printf.sprintf "containing %d + {%s}" k (runs l)
    | Random l -> Printf.sprintf "{%s}" (runs l)
    | Disjoint k -> Printf.sprintf "disjoint %d" k
    | Nothing -> "nothing"
    | Everything -> "everything"
  in
  Printf.sprintf "gpus=%d n=%d ints=%b\nprior: %s\nmarks: %s\nwindow: %s" c.gpus c.n c.ints
    (per_gpu c.prior) (per_gpu c.marks)
    (match c.window with
    | `None -> "none"
    | `All -> "all"
    | `Same s -> "same " ^ spec s
    | `Each ws -> String.concat ", " (Array.to_list (Array.map spec ws)))

(* One side of the comparison: a fresh 6-GPU machine and the array in the
   case's state, merged by [merge]. Returns the result, every valid set,
   every replica's contents and each device's system-memory peak. *)
let merge_side c merge =
  let cfg =
    Rt_config.make ~num_gpus:c.gpus ~coherence:Rt_config.Lazy
      (Mgacc.Machine.cluster ~nodes:2 ~gpus_per_node:3 ())
  in
  let set_of l =
    Interval.Set.of_list (List.map (fun (lo, len) -> Interval.make lo (min c.n (lo + len))) l)
  in
  let full = Interval.Set.of_interval (Interval.make 0 c.n) in
  let da = Ref_merge.replicated cfg ~ints:c.ints ~n:c.n in
  let r = Darray.replica_of da in
  Array.iteri (fun g l -> r.Darray.valid.(g) <- set_of l) c.prior;
  (* Keep the invariant: every element is valid somewhere. *)
  r.Darray.valid.(0) <-
    Interval.Set.union r.Darray.valid.(0)
      (Array.fold_left Interval.Set.diff full r.Darray.valid);
  Array.iteri
    (fun g l ->
      match r.Darray.dirty.(g) with
      | Some d ->
          List.iter
            (fun (iv : Interval.t) ->
              for i = iv.Interval.lo to iv.Interval.hi - 1 do
                Dirty.mark d i
              done)
            (Interval.Set.to_list (set_of l))
      | None -> failwith "merge_side: no dirty bits")
    c.marks;
  let of_spec = function
    | Equal k -> set_of c.marks.(k)
    | Containing (k, l) -> Interval.Set.union (set_of c.marks.(k)) (set_of l)
    | Random l -> set_of l
    | Disjoint k -> Interval.Set.diff full (set_of c.marks.(k))
    | Nothing -> Interval.Set.empty
    | Everything -> full
  in
  let window =
    match c.window with
    | `None -> Comm_manager.Cw_none
    | `All -> Comm_manager.Cw_all
    | `Same s -> Comm_manager.Cw_windows (Array.make c.gpus (of_spec s))
    | `Each ws -> Comm_manager.Cw_windows (Array.map of_spec ws)
  in
  let result = merge cfg da ~window in
  let contents =
    Array.map
      (fun buf ->
        if c.ints then Array.map float_of_int (Mgacc.Memory.int_data buf)
        else Array.copy (Mgacc.Memory.float_data buf))
      r.Darray.bufs
  in
  let peaks =
    Array.init c.gpus (fun g ->
        Mgacc.Memory.peak_class
          (Mgacc.Machine.device cfg.Rt_config.machine g).Mgacc_gpusim.Device.memory `System)
  in
  let dirty_left =
    Array.exists (function Some d -> Dirty.any_dirty d | None -> false) r.Darray.dirty
  in
  (result, Array.map Interval.Set.to_list r.Darray.valid, contents, peaks, dirty_left)

let prop_lazy_merge_matches_oracle c =
  let result, valid, contents, peaks, dirty_left = merge_side c Ref_merge.reconcile_runtime in
  let result', valid', contents', peaks', dirty_left' = merge_side c Ref_merge.reconcile in
  let differs what = QCheck2.Test.fail_reportf "%s differ from the per-pair oracle" what in
  if result.Comm_manager.ops <> result'.Comm_manager.ops then
    differs "ops (dir, bytes, tag, kind, round, group)"
  else if result.Comm_manager.scans <> result'.Comm_manager.scans then differs "scans"
  else if result.Comm_manager.coh <> result'.Comm_manager.coh then differs "coherence counts"
  else if valid <> valid' then differs "valid sets"
  else if contents <> contents' then differs "replica contents"
  else if peaks <> peaks' then differs "staging peaks"
  else if dirty_left || dirty_left' then differs "dirty bits left set"
  else result = result'

let test_qcheck_lazy_merge_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~long_factor:10
       ~name:"lazy merge == per-pair oracle (ops, valid sets, contents)"
       ~print:print_merge_case gen_merge_case prop_lazy_merge_matches_oracle)

(* ---------------- eager coherence against its oracle ---------------- *)

(* Eager coherence is the lazy merge with a whole-array window, chunk
   payloads and a star broadcast; [Ref_merge.reconcile_eager] keeps the
   eager merges it replaced. *)
type eager_case = {
  e_gpus : int;
  two_level : bool;
  chunk_bytes : int;
  planned : bool;  (** auto collectives (the reduction is an allreduce) *)
  e_n : int;
  e_ints : bool;
  e_marks : (int * int) list array;  (** each GPU's dirty (lo, len) runs *)
  red_n : int;
  red_ints : bool;
  redop : Mgacc.Ast.redop;
  contribs : (int * int) list array;  (** each GPU's (element, value) contributions *)
}

let gen_eager_case =
  let open QCheck2.Gen in
  let* e_gpus = int_range 2 16 in
  let* two_level = bool in
  let* chunk_bytes = oneofl [ 8; 64; 256; 1 lsl 20 ] in
  let* planned = bool in
  let* e_n = oneof [ int_range 1 200; int_range 200 600 ] in
  let* e_ints = bool in
  let runs = list_size (int_bound 6) (pair (int_bound (e_n - 1)) (int_range 1 40)) in
  let* e_marks = array_repeat e_gpus (oneof [ pure []; runs; scattered e_n ]) in
  let* red_n = int_range 1 64 in
  let* red_ints = bool in
  let* redop = oneofl Mgacc.Ast.[ Rplus; Rmul; Rmax; Rmin ] in
  let+ contribs =
    array_repeat e_gpus
      (oneof [ pure []; list_size (int_bound 8) (pair (int_bound (red_n - 1)) (int_range (-40) 40)) ])
  in
  { e_gpus; two_level; chunk_bytes; planned; e_n; e_ints; e_marks; red_n; red_ints; redop; contribs }

let print_eager_case c =
  let pairs l = String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) l) in
  let per_gpu a = String.concat " | " (Array.to_list (Array.map pairs a)) in
  Printf.sprintf
    "gpus=%d two_level=%b chunk_bytes=%d planned=%b\n\
     n=%d ints=%b marks (lo,len): %s\n\
     reduction %s n=%d ints=%b contribs (i,v): %s"
    c.e_gpus c.two_level c.chunk_bytes c.planned c.e_n c.e_ints (per_gpu c.e_marks)
    (Mgacc.Ast.redop_to_string c.redop) c.red_n c.red_ints (per_gpu c.contribs)

(* One side: a fresh 16-GPU machine, the written array with the case's
   dirty marks and the reduction target, reconciled by [side]. Returns
   the result, both arrays' valid sets and replica contents, each
   device's system-memory peak and whether any dirty bit is left. *)
let eager_side c side =
  let cfg =
    Rt_config.make ~num_gpus:c.e_gpus ~coherence:Rt_config.Eager ~two_level_dirty:c.two_level
      ~chunk_bytes:c.chunk_bytes
      ~collective:(if c.planned then Rt_config.Auto else Rt_config.Direct)
      (Mgacc.Machine.cluster ~nodes:4 ~gpus_per_node:4 ())
  in
  let da = Ref_merge.replicated cfg ~ints:c.e_ints ~n:c.e_n in
  let r = Darray.replica_of da in
  Array.iteri
    (fun g l ->
      match r.Darray.dirty.(g) with
      | Some d ->
          List.iter
            (fun (lo, len) ->
              for i = lo to min c.e_n (lo + len) - 1 do
                Dirty.mark d i
              done)
            l
      | None -> failwith "eager_side: no dirty bits")
    c.e_marks;
  let target = Ref_merge.reduction_target cfg ~ints:c.red_ints ~n:c.red_n in
  let result = side cfg da { Ref_merge.target; op = c.redop; contribs = c.contribs } in
  let arrays = [ da; target ] in
  let contents =
    List.map
      (fun (a : Darray.t) ->
        Array.map
          (fun buf ->
            match a.Darray.elem with
            | Mgacc.Ast.Eint -> Array.map float_of_int (Mgacc.Memory.int_data buf)
            | Mgacc.Ast.Edouble -> Array.copy (Mgacc.Memory.float_data buf))
          (Darray.replica_of a).Darray.bufs)
      arrays
  in
  let valid =
    List.map
      (fun a -> Array.map Interval.Set.to_list (Darray.replica_of a).Darray.valid)
      arrays
  in
  let peaks =
    Array.init c.e_gpus (fun g ->
        Mgacc.Memory.peak_class
          (Mgacc.Machine.device cfg.Rt_config.machine g).Mgacc_gpusim.Device.memory `System)
  in
  let dirty_left =
    Array.exists (function Some d -> Dirty.any_dirty d | None -> false) r.Darray.dirty
  in
  (result, valid, contents, peaks, dirty_left)

let prop_eager_merge_matches_oracle c =
  let result, valid, contents, peaks, dirty_left =
    eager_side c Ref_merge.reconcile_eager_runtime
  in
  let result', valid', contents', peaks', dirty_left' = eager_side c Ref_merge.reconcile_eager in
  let differs what = QCheck2.Test.fail_reportf "%s differ from the eager oracle" what in
  if result.Comm_manager.ops <> result'.Comm_manager.ops then
    differs "ops (dir, bytes, tag, kind, round, group)"
  else if result.Comm_manager.scans <> result'.Comm_manager.scans then differs "scans"
  else if result.Comm_manager.coh <> result'.Comm_manager.coh then differs "coherence counts"
  else if result.Comm_manager.combines <> result'.Comm_manager.combines then
    differs "combine kernels"
  else if compare contents contents' <> 0 then differs "replica contents"
  else if valid <> valid' then differs "valid sets"
  else if peaks <> peaks' then differs "staging peaks"
  else if dirty_left || dirty_left' then differs "dirty bits left set"
  else compare result result' = 0

let test_qcheck_eager_merge_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~long_factor:10
       ~name:"eager merge == eager oracle (ops, combines, contents, staging)"
       ~print:print_eager_case gen_eager_case prop_eager_merge_matches_oracle)

let suite =
  [
    tc "lazy: five apps match the sequential reference" test_lazy_results_match_sequential;
    tc "lazy: eager flag equals the default run" test_eager_is_the_default;
    test_qcheck_lazy_equals_eager;
    tc "lazy: consumer windows limit dirty shipping" test_window_limits_shipping;
    tc "lazy: unread reduction broadcast is deferred" test_unread_reduction_deferred;
    tc "lazy: consumed reduction re-publishes via the tree" test_consumed_reduction_tree_bcast;
    test_qcheck_lazy_merge_matches_oracle;
    test_qcheck_eager_merge_matches_oracle;
  ]
