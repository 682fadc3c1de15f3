(* Property-based tests (QCheck) on the core data structures and
   invariants: interval sets against a naive set-of-points model, bitsets
   against boolean arrays, task splits, dirty tracking, the fabric's
   physical bounds, and affine analysis against direct evaluation. *)

module Interval = Mgacc_util.Interval
module Bitset = Mgacc_util.Bitset
module Memory = Mgacc_gpusim.Memory
module Fabric = Mgacc_gpusim.Fabric
module Spec = Mgacc_gpusim.Spec
open Mgacc_runtime

let qtest ?(count = 200) ?long_factor name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?long_factor ~name gen prop)

(* ---------------- Interval sets vs a model ---------------- *)

let gen_intervals =
  QCheck2.Gen.(list_size (int_bound 8) (pair (int_bound 60) (int_bound 20)))

let points_of_list l =
  List.concat_map
    (fun (lo, len) -> List.init len (fun k -> lo + k))
    l
  |> List.sort_uniq compare

let set_of_list l = Interval.Set.of_list (List.map (fun (lo, len) -> Interval.make lo (lo + len)) l)

let model_points s =
  List.concat_map
    (fun (iv : Interval.t) -> List.init (Interval.length iv) (fun k -> iv.Interval.lo + k))
    (Interval.Set.to_list s)

let prop_set_semantics (l : (int * int) list) =
  let s = set_of_list l in
  model_points s = points_of_list l

let normalized s =
  let rec disjoint_sorted = function
    | (a : Interval.t) :: (b : Interval.t) :: rest ->
        (* strictly separated (no overlap, no adjacency) and non-empty *)
        Interval.length a > 0 && a.Interval.hi < b.Interval.lo && disjoint_sorted (b :: rest)
    | [ a ] -> Interval.length a > 0
    | [] -> true
  in
  disjoint_sorted (Interval.Set.to_list s)

let prop_set_normalized l = normalized (set_of_list l)

(* Large sets: hundreds to thousands of short runs (some empty, in random
   order) over a universe of 100k-400k points, dense enough that runs
   overlap and abut. Too big for the point model; checked against the
   fold-based reference algebra instead. *)
let gen_large_intervals =
  QCheck2.Gen.(
    int_range 100_000 400_000 >>= fun universe ->
    list_size (int_range 100 2000) (pair (int_bound (universe - 1)) (int_bound 40)))

(* Every result equals the reference's (which [Ref_interval.to_set]
   validates as normalized on the way in) and is itself normalized. *)
let agrees_with_reference (l1, l2) =
  let raw l = List.map (fun (lo, len) -> Interval.make lo (lo + len)) l in
  let raw1 = raw l1 and raw2 = raw l2 in
  let s1 = Interval.Set.of_list raw1 and s2 = Interval.Set.of_list raw2 in
  let r1 = Ref_interval.of_list raw1 and r2 = Ref_interval.of_list raw2 in
  let same s r = normalized s && Interval.Set.equal s (Ref_interval.to_set r) in
  let some_cuts = List.filteri (fun i _ -> i < 64) raw2 in
  let u = Interval.Set.union s1 s2 and i = Interval.Set.inter s1 s2 in
  same s1 r1 && same s2 r2
  && same u (Ref_interval.union r1 r2)
  && same (Interval.Set.diff s1 s2) (Ref_interval.diff r1 r2)
  && same (Interval.Set.diff s2 s1) (Ref_interval.diff r2 r1)
  && same
       (List.fold_left Interval.Set.add s1 some_cuts)
       (List.fold_left Ref_interval.add r1 some_cuts)
  && normalized i
  && Interval.Set.subset s1 s2 = Ref_interval.subset r1 r2
  && Interval.Set.subset s2 s1 = Ref_interval.subset r2 r1
  && Interval.Set.subset i s1 && Interval.Set.subset s2 u

let prop_set_ops (l1, l2) =
  let s1 = set_of_list l1 and s2 = set_of_list l2 in
  let p1 = points_of_list l1 and p2 = points_of_list l2 in
  let eq s pts = model_points s = pts in
  eq (Interval.Set.union s1 s2) (List.sort_uniq compare (p1 @ p2))
  && eq (Interval.Set.inter s1 s2) (List.filter (fun x -> List.mem x p2) p1)
  && eq (Interval.Set.diff s1 s2) (List.filter (fun x -> not (List.mem x p2)) p1)
  && agrees_with_reference (l1, l2)

let prop_of_sorted_disjoint_agrees l =
  let s = set_of_list l in
  (* Re-feeding a normalized set through the O(n) constructor must be the
     identity, and garbage must be rejected. *)
  Interval.Set.equal s (Interval.Set.of_sorted_disjoint (Interval.Set.to_list s))

(* ---------------- Bitset vs boolean array ---------------- *)

(* Single-bit sets plus whole ranges (set bit by bit, clamped
   to the bitset), on up to about 2,000 bits so that full [0xFF] bytes,
   full and clear 64-bit words and a trailing partial word are common.
   Word-aligned ranges put run starts and ends on word boundaries, next
   to full or clear words. *)
let gen_bit_ops =
  QCheck2.Gen.(
    let* n = oneof [ int_range 1 600; int_range 600 2000 ] in
    let op =
      oneof
        [
          map (fun i -> `Set i) (int_bound (n - 1));
          map2 (fun lo len -> `Range (lo, lo + len)) (int_bound (n - 1)) (int_bound 300);
          map2 (fun w k -> `Range (64 * w, 64 * (w + k))) (int_bound (n / 64)) (int_range 1 4);
        ]
    in
    let+ ops = list_size (int_bound 40) op in
    (n, ops))

let prop_bitset (n, ops) =
  let b = Bitset.create n in
  let model = Array.make n false in
  List.iter
    (function
      | `Set i ->
          Bitset.set b i;
          model.(i) <- true
      | `Range (lo, hi) ->
          for i = lo to min n hi - 1 do
            Bitset.set b i;
            model.(i) <- true
          done)
    ops;
  let gets_ok = Array.for_all Fun.id (Array.init n (fun i -> Bitset.get b i = model.(i))) in
  let model_runs =
    List.init n Fun.id
    |> List.filter (fun i -> model.(i))
    |> List.map (fun i -> Interval.make i (i + 1))
    |> Interval.Set.of_list
  in
  gets_ok && Interval.Set.equal (Bitset.runs b) model_runs

(* ---------------- Task splits ---------------- *)

let gen_split = QCheck2.Gen.(triple (int_bound 50) (int_bound 1000) (int_range 1 8))

let prop_split_covers (lower, len, parts) =
  let upper = lower + len in
  let r = Task_map.split ~lower ~upper ~parts in
  let total = Array.fold_left (fun acc x -> acc + Task_map.length x) 0 r in
  let contiguous = ref (Array.length r = parts) in
  Array.iteri
    (fun i x ->
      if i = 0 then (if x.Task_map.start_ <> lower then contiguous := false)
      else if r.(i - 1).Task_map.stop_ <> x.Task_map.start_ then contiguous := false)
    r;
  let balanced =
    let sizes = Array.map Task_map.length r in
    Array.fold_left max 0 sizes - Array.fold_left min max_int sizes <= 1
  in
  total = len && !contiguous && balanced
  && (len = 0 || r.(parts - 1).Task_map.stop_ = upper)

(* ---------------- Dirty tracking ---------------- *)

let gen_dirty =
  QCheck2.Gen.(triple (int_range 1 500) (int_range 8 64) (list_size (int_bound 60) (int_bound 1000)))

let prop_dirty_runs_match_marks (length, chunk_bytes, marks) =
  let mem = Memory.create ~device_id:0 ~capacity:(16 * 1024 * 1024) in
  let d = Dirty.create mem ~elem_bytes:8 ~length ~chunk_bytes ~two_level:true in
  let model = Hashtbl.create 16 in
  List.iter
    (fun raw ->
      let i = raw mod length in
      Dirty.mark d i;
      Hashtbl.replace model i ())
    marks;
  let runs = Dirty.dirty_runs d in
  let ok =
    List.for_all Fun.id
      (List.init length (fun i -> Interval.Set.mem runs i = Hashtbl.mem model i))
  in
  let count_ok = Interval.Set.total_length runs = Hashtbl.length model in
  (* Two-level transfer plan ships at least the dirty payload and at most
     the whole array plus bitmap. *)
  let bytes = Dirty.transfer_bytes d in
  let bound_ok =
    if Hashtbl.length model = 0 then bytes = 0
    else bytes >= 8 * Hashtbl.length model && bytes <= (8 * length) + (length + 7) / 8 + (8 * 64)
  in
  Dirty.free mem d;
  ok && count_ok && bound_ok

(* ---------------- Fabric physics ---------------- *)

let gen_transfers =
  QCheck2.Gen.(
    list_size (int_range 1 10)
      (triple (int_range 0 2) (int_range 1 50_000_000) (int_bound 3)))

let prop_fabric_bounds txs =
  let f = Fabric.create Spec.pcie_gen2_desktop ~num_gpus:2 in
  let reqs =
    List.map
      (fun (kind, bytes, r) ->
        let direction =
          match kind with
          | 0 -> Fabric.H2d (r mod 2)
          | 1 -> Fabric.D2h (r mod 2)
          | _ -> Fabric.P2p (r mod 2, 1 - (r mod 2))
        in
        { Ref_fabric.direction; bytes; ready = float_of_int r *. 1e-4; tag = "q" })
      txs
  in
  let finishes = Ref_fabric.finishes f reqs in
  List.length finishes = List.length reqs
  && List.for_all2
       (fun (r : Ref_fabric.request) finish ->
         let lower = r.ready +. (float_of_int r.bytes /. Fabric.standalone_bandwidth f r.direction) in
         finish +. 1e-9 >= lower)
       reqs finishes

let reqs_of_txs txs =
  List.map
    (fun (kind, bytes, r) ->
      let direction =
        match kind with
        | 0 -> Fabric.H2d (r mod 2)
        | 1 -> Fabric.D2h (r mod 2)
        | _ -> Fabric.P2p (r mod 2, 1 - (r mod 2))
      in
      { Ref_fabric.direction; bytes; ready = float_of_int r *. 1e-4; tag = "q" })
    txs

let makespan finishes = List.fold_left Float.max 0.0 finishes

(* A batch of one flow has nothing to share with: it must finish exactly
   at ready + transfer_time_alone (the completion-threshold fix keeps
   this exact regardless of the flow's size). *)
let prop_fabric_lone_flow (kind, bytes, r) =
  let f = Fabric.create Spec.pcie_gen2_desktop ~num_gpus:2 in
  let reqs = reqs_of_txs [ (kind, bytes, r) ] in
  match Ref_fabric.finishes f reqs with
  | [ finish ] ->
      let req = List.hd reqs in
      let expected = req.ready +. Fabric.transfer_time_alone f req.direction ~bytes in
      Float.abs (finish -. expected) <= 1e-9 *. Float.max 1.0 expected
  | _ -> false

(* Growing any one request can never shrink the batch makespan: a bigger
   flow occupies its links at least as long and max-min sharing gives the
   others no more rate than before. *)
let prop_fabric_makespan_monotone (txs, idx, extra) =
  let f = Fabric.create Spec.pcie_gen2_desktop ~num_gpus:2 in
  let reqs = reqs_of_txs txs in
  let m1 = makespan (Ref_fabric.finishes f reqs) in
  let n = List.length reqs in
  let grown =
    List.mapi
      (fun i (r : Ref_fabric.request) -> if i = idx mod n then { r with bytes = r.bytes + extra } else r)
      reqs
  in
  let m2 = makespan (Ref_fabric.finishes f grown) in
  m2 +. 1e-9 *. Float.max 1.0 m1 >= m1

(* Incremental vs reference allocator: the fast path in Fabric.run
   must reproduce the from-scratch water-filling bit for bit — not just
   within tolerance, because BENCH artifacts pin exact completion times.
   Two generators. Small random batches over a 2x2 cluster mix H2d/D2h,
   same-node and cross-node P2p, zero-byte requests, and coincident
   arrivals (ready times drawn from a coarse grid so ties are common).
   Large batches over a 4x4 fat tree (spine included) add the shapes the
   collectives send: up to ~300 requests, whole broadcasts (one source
   to every peer, equal bytes, equal ready), ready times reversed
   against request order or all tied, and zero-byte requests. *)
let gen_cluster_batch =
  QCheck2.Gen.(
    list_size (int_range 1 24)
      (quad (int_range 0 3) (int_bound 50_000_000) (int_bound 3) (int_bound 5)))

let cluster_reqs txs =
  List.map
    (fun (kind, bytes, r, slot) ->
      let direction =
        match kind with
        | 0 -> Fabric.H2d (r mod 4)
        | 1 -> Fabric.D2h (r mod 4)
        | 2 ->
            (* same-node peer: 0<->1 or 2<->3 *)
            let base = 2 * (r mod 2) in
            Fabric.P2p (base, base + 1)
        | _ ->
            (* cross-node peer: node 0 {0,1} <-> node 1 {2,3} *)
            Fabric.P2p (r mod 2, 2 + (r mod 2))
      in
      { Ref_fabric.direction; bytes; ready = float_of_int slot *. 1e-4; tag = "eq" })
    txs

let cluster_fabric () =
  let topology =
    { Fabric.gpus_per_node = 2; internode_bandwidth = 3.2e9; internode_latency = 25e-6 }
  in
  Fabric.create ~topology Spec.pcie_gen2_desktop ~num_gpus:4

let fat_tree_fabric () =
  let topology =
    { Fabric.gpus_per_node = 4; internode_bandwidth = 3.2e9; internode_latency = 25e-6 }
  in
  Fabric.create ~flavor:(Fabric.Fat_tree { oversub = 2.0 }) ~topology Spec.pcie_gen2_desktop
    ~num_gpus:16

(* A fat-tree batch piece: a broadcast from [src] to its 15 peers, or
   one transfer. Zero bytes come up often. *)
type piece = Bcast of int * int * int | One of int * int * int * int * int

let gen_fat_tree_bytes = QCheck2.Gen.(oneof [ pure 0; int_range 1 4096; int_bound 50_000_000 ])

let gen_piece =
  QCheck2.Gen.(
    oneof
      [
        map3 (fun src bytes slot -> Bcast (src, bytes, slot)) (int_bound 15) gen_fat_tree_bytes
          (int_bound 5);
        map
          (fun ((kind, a, b), (bytes, slot)) -> One (kind, a, b, bytes, slot))
          (pair (triple (int_bound 2) (int_bound 15) (int_bound 15))
             (pair gen_fat_tree_bytes (int_bound 5)));
      ])

(* [order]: 0 keeps the drawn ready times, 1 reverses them against
   request order, 2 ties every request at one ready time. *)
let gen_fat_tree_batch = QCheck2.Gen.(pair (list_size (int_range 1 40) gen_piece) (int_bound 2))

let fat_tree_reqs (pieces, order) =
  let req direction bytes slot = { Ref_fabric.direction; bytes; ready = float_of_int slot *. 1e-5; tag = "ft" } in
  let reqs =
    List.concat_map
      (function
        | Bcast (src, bytes, slot) ->
            List.filter_map
              (fun dst -> if dst = src then None else Some (req (Fabric.P2p (src, dst)) bytes slot))
              (List.init 16 Fun.id)
        | One (kind, a, b, bytes, slot) ->
            let direction =
              match kind with
              | 0 -> Fabric.H2d a
              | 1 -> Fabric.D2h a
              | _ -> Fabric.P2p (a, if a = b then (b + 1) mod 16 else b)
            in
            [ req direction bytes slot ])
      pieces
    |> List.filteri (fun i _ -> i < 300)
  in
  match order with
  | 0 -> reqs
  | 1 ->
      (* The latest-ready requests first: the stable sort must move
         every group, and ties within a group keep request order. *)
      List.stable_sort
        (fun (a : Ref_fabric.request) (b : Ref_fabric.request) -> Float.compare b.ready a.ready)
        reqs
  | _ -> List.map (fun (r : Ref_fabric.request) -> { r with ready = 2e-5 }) reqs

type batch = Cluster of (int * int * int * int) list | Fat_tree of (piece list * int)

let gen_fabric_batch =
  QCheck2.Gen.(
    oneof
      [
        map (fun txs -> Cluster txs) gen_cluster_batch;
        map (fun b -> Fat_tree b) gen_fat_tree_batch;
      ])

let prop_fabric_incremental_matches_reference batch =
  let f, reqs =
    match batch with
    | Cluster txs -> (cluster_fabric (), cluster_reqs txs)
    | Fat_tree b -> (fat_tree_fabric (), fat_tree_reqs b)
  in
  let b = Ref_fabric.batch_of reqs in
  Fabric.run f b;
  let slow = Ref_fabric.run_reference f b in
  (* Finish by finish at the same request index, and bit identity, not
     tolerance: Float.equal distinguishes nothing a compare-based check
     would miss, and any divergence here would eventually show up as a
     BENCH artifact diff. *)
  Array.length slow = List.length reqs
  && Array.for_all Fun.id
       (Array.mapi (fun i finish -> Float.equal (Float.Array.get b.Fabric.finish i) finish) slow)

(* ---------------- Profiler totals come from the ledger ---------------- *)

(* Random charges: any category, exposed >= 0 (sometimes tiny, so sums
   round), hidden negative, zero or positive, random bytes. *)
let gen_charges =
  QCheck2.Gen.(
    let seconds = float_bound_inclusive 1.0 in
    list_size (int_bound 40)
      (quad (int_bound 3)
         (oneof [ pure 0.0; seconds; map (fun x -> x *. 1e-7) seconds ])
         (oneof [ pure 0.0; seconds; map Float.neg seconds ])
         (int_bound 1_000_000)))

(* The report must equal, bit for bit, an independent fold of the same
   charges: per-category running sums in charge order, hidden added only
   when positive, total summed as cpu-gpu + gpu-gpu + kernels + overhead.
   Any change to that order moves the golden corpus's floats. *)
let prop_report_matches_counter_fold charges =
  let cats = Mgacc_obs.Blame.[| Kernel; Cpu_gpu; Gpu_gpu; Overhead |] in
  let p = Profiler.create () in
  let exposed = Array.make 4 0.0 and hidden = ref 0.0 and bytes = Array.make 4 0 in
  List.iter
    (fun (i, e, h, b) ->
      Profiler.charge p cats.(i) ~label:"x" ~exposed:e ~hidden:h ~bytes:b;
      exposed.(i) <- exposed.(i) +. e;
      if h > 0.0 then hidden := !hidden +. h;
      bytes.(i) <- bytes.(i) + b)
    charges;
  let r = Report.of_profiler p ~machine:"m" ~variant:"v" ~num_gpus:1 in
  Float.equal r.Report.kernel_time exposed.(0)
  && Float.equal r.Report.cpu_gpu_time exposed.(1)
  && Float.equal r.Report.gpu_gpu_time exposed.(2)
  && Float.equal r.Report.overhead_time exposed.(3)
  && Float.equal r.Report.total_time (exposed.(1) +. exposed.(2) +. exposed.(0) +. exposed.(3))
  && Float.equal r.Report.hidden_seconds !hidden
  && r.Report.cpu_gpu_bytes = bytes.(1)
  && r.Report.gpu_gpu_bytes = bytes.(2)

(* ---------------- 2-D tile decomposition ---------------- *)

(* Random array extents, GPU-grid shapes and halo widths: the tiled parts
   built by [Darray.ensure_distributed] must partition the index space —
   every element owned by exactly one GPU, [owner_of] agreeing with
   [part_owns], every resident (owned or halo) element's packed-box
   offset inside its buffer, and every tile's resident window clamped to
   the array bounds. Degenerate shapes (more row blocks than rows, more
   column blocks than columns) produce empty tiles, which must not
   break coverage. *)
let gen_tiling =
  QCheck2.Gen.(
    triple
      (pair (int_range 1 24) (int_range 2 24)) (* rows, cols *)
      (pair (int_range 1 4) (int_range 1 4)) (* nodes, gpus per node *)
      (quad (int_bound 2) (int_bound 2) (int_bound 2) (int_bound 2)) (* halos *))

let prop_tiles_partition ((rows, cols), (nodes, gpn), (rl, rr, cl, cr)) =
  let num_gpus = nodes * gpn in
  let length = rows * cols in
  let machine = Mgacc_gpusim.Machine.cluster ~nodes ~gpus_per_node:gpn () in
  let cfg = Rt_config.make ~num_gpus machine in
  let da =
    Darray.create cfg ~name:"t"
      ~host:(Mgacc_exec.View.of_float_array ~name:"t" (Array.init length float_of_int))
  in
  let pr, pc = Mgacc_analysis.Tile2d.grid_of ~num_gpus in
  let spec =
    {
      Darray.stride = cols;
      left = 0;
      right = 0;
      tile = Some { Darray.pr; pc; row_left = rl; row_right = rr; col_left = cl; col_right = cr };
    }
  in
  let row_split = Task_map.split ~lower:0 ~upper:rows ~parts:pr in
  let ranges = Array.init num_gpus (fun g -> row_split.(g / pc)) in
  let _ = Darray.ensure_distributed cfg da ~spec ~ranges in
  match da.Darray.state with
  | Darray.Distributed d ->
      let parts = d.Darray.parts in
      let in_bounds =
        Array.for_all
          (fun (p : Darray.part) ->
            match p.Darray.tile with
            | None -> false
            | Some tl ->
                tl.Darray.trow_win.Interval.lo >= 0
                && tl.Darray.trow_win.Interval.hi <= rows
                && tl.Darray.tcol_win.Interval.lo >= 0
                && tl.Darray.tcol_win.Interval.hi <= cols)
          parts
      in
      let covered = ref in_bounds in
      for idx = 0 to length - 1 do
        let owners = ref 0 in
        Array.iter (fun p -> if Darray.part_owns d.Darray.spec p idx then incr owners) parts;
        if !owners <> 1 then covered := false;
        if not (Darray.part_owns d.Darray.spec parts.(Darray.owner_of d idx) idx) then
          covered := false;
        Array.iter
          (fun (p : Darray.part) ->
            if Darray.part_contains d.Darray.spec p idx then begin
              let size =
                match p.Darray.tile with
                | Some tl ->
                    Interval.length tl.Darray.trow_win * Interval.length tl.Darray.tcol_win
                | None -> Interval.length p.Darray.window
              in
              let off = Darray.offset_in_part d.Darray.spec p idx in
              if off < 0 || off >= size then covered := false
            end)
          parts
      done;
      !covered
  | _ -> false

(* Random 5-point stencils through the whole compiler + runtime on a 2x2
   GPU grid: the 2-D decomposition under lazy coherence must produce
   bit-identical results to the same 2-D run under eager coherence —
   deferring halo/validity reconciliation can reorder transfers but never
   change values. *)
let gen_stencil =
  QCheck2.Gen.(
    triple
      (pair (int_range 6 20) (int_range 6 18)) (* rows, cols *)
      (pair (int_range 1 2) (int_range 1 3)) (* halo width, sweeps *)
      (triple (int_range 1 9) (int_range 1 9) (int_range 3 13)) (* init pattern *))

let stencil_src ((rows, cols), (h, iters), (ia, ib, im)) =
  Printf.sprintf
    {|void main() {
        int rows = %d; int cols = %d; int it; int r; int c;
        double u[rows][cols];
        double v[rows][cols];
        for (r = 0; r < rows; r++) { for (c = 0; c < cols; c++) { u[r][c] = 1.0 * ((r * %d + c * %d) %% %d); v[r][c] = u[r][c]; } }
        #pragma acc data copy(u[0:rows*cols]) copy(v[0:rows*cols])
        {
          for (it = 0; it < %d; it++) {
            #pragma acc parallel loop localaccess(u: stride(cols, %d * cols, %d * cols), v: stride(cols))
            for (r = 0; r < rows; r++) {
              if (r > %d - 1 && r < rows - %d) {
                #pragma acc loop
                for (c = %d; c < cols - %d; c++) {
                  v[r][c] = 0.2 * (u[r][c] + u[r-%d][c] + u[r+%d][c] + u[r][c-%d] + u[r][c+%d]);
                }
              }
            }
            #pragma acc parallel loop localaccess(v: stride(cols, %d * cols, %d * cols), u: stride(cols))
            for (r = 0; r < rows; r++) {
              if (r > %d - 1 && r < rows - %d) {
                #pragma acc loop
                for (c = %d; c < cols - %d; c++) {
                  u[r][c] = 0.2 * (v[r][c] + v[r-%d][c] + v[r+%d][c] + v[r][c-%d] + v[r][c+%d]);
                }
              }
            }
          }
        }
      }|}
    rows cols ia ib im iters h h h h h h h h h h h h h h h h h h h h

let decomp2d_options =
  {
    Mgacc_translator.Kernel_plan.enable_distribution = true;
    enable_layout_transform = true;
    enable_miss_check_elim = true;
    enable_fusion = false;
    enable_decomp2d = true;
  }

let run_stencil_2d ~coherence src =
  let m = Mgacc_gpusim.Machine.cluster ~nodes:2 ~gpus_per_node:2 () in
  let config = Rt_config.make ~num_gpus:4 ~translator:decomp2d_options ~coherence m in
  let env, _ = Mgacc.run_acc ~config (Mgacc.parse_string ~name:"prop.c" src) in
  (Mgacc.float_results env "u", Mgacc.float_results env "v")

let prop_stencil_2d_lazy_eq_eager params =
  let src = stencil_src params in
  let ue, ve = run_stencil_2d ~coherence:Rt_config.Eager src in
  let ul, vl = run_stencil_2d ~coherence:Rt_config.Lazy src in
  ue = ul && ve = vl

(* ---------------- Affine analysis vs direct evaluation ---------------- *)

(* Random affine-expressible expressions over i and uniforms u, v. *)
let gen_affine_expr : Mgacc_minic.Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let loc = Mgacc_minic.Loc.dummy in
  let mk d = { Mgacc_minic.Ast.edesc = d; eloc = loc } in
  let leaf =
    oneof
      [
        map (fun n -> mk (Mgacc_minic.Ast.Int_lit n)) (int_bound 20);
        return (mk (Mgacc_minic.Ast.Var "i"));
        return (mk (Mgacc_minic.Ast.Var "u"));
        return (mk (Mgacc_minic.Ast.Var "v"));
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      oneof
        [
          leaf;
          map2
            (fun a b -> mk (Mgacc_minic.Ast.Binop (Mgacc_minic.Ast.Add, a, b)))
            (node (depth - 1)) (node (depth - 1));
          map2
            (fun a b -> mk (Mgacc_minic.Ast.Binop (Mgacc_minic.Ast.Sub, a, b)))
            (node (depth - 1)) (node (depth - 1));
          map2
            (fun n b -> mk (Mgacc_minic.Ast.Binop (Mgacc_minic.Ast.Mul, mk (Mgacc_minic.Ast.Int_lit n), b)))
            (int_bound 5) (node (depth - 1));
          map (fun a -> mk (Mgacc_minic.Ast.Unop (Mgacc_minic.Ast.Neg, a))) (node (depth - 1));
        ]
  in
  node 3

let eval_expr env e =
  let rec go (e : Mgacc_minic.Ast.expr) =
    match e.Mgacc_minic.Ast.edesc with
    | Mgacc_minic.Ast.Int_lit n -> n
    | Mgacc_minic.Ast.Var v -> List.assoc v env
    | Mgacc_minic.Ast.Unop (Mgacc_minic.Ast.Neg, x) -> -go x
    | Mgacc_minic.Ast.Binop (Mgacc_minic.Ast.Add, a, b) -> go a + go b
    | Mgacc_minic.Ast.Binop (Mgacc_minic.Ast.Sub, a, b) -> go a - go b
    | Mgacc_minic.Ast.Binop (Mgacc_minic.Ast.Mul, a, b) -> go a * go b
    | _ -> assert false
  in
  go e

let prop_affine_matches_eval e =
  let is_uniform v = v = "u" || v = "v" in
  match Mgacc_analysis.Affine.of_expr ~loop_var:"i" ~is_uniform e with
  | None -> true (* nothing to check: generator can build i*i-free exprs only, but Mul(int, e) keeps it affine *)
  | Some a ->
      List.for_all
        (fun (i, u, v) ->
          let env = [ ("i", i); ("u", u); ("v", v) ] in
          let direct = eval_expr env e in
          let offset =
            List.fold_left
              (fun acc term -> acc + eval_expr env term)
              a.Mgacc_analysis.Affine.const a.Mgacc_analysis.Affine.terms
          in
          direct = (a.Mgacc_analysis.Affine.coeff * i) + offset)
        [ (0, 1, 2); (3, 5, 7); (11, 0, 4); (-2, 3, -8) ]

(* ---------------- Frontend robustness ---------------- *)

(* Random token soup: the parser and typechecker must reject garbage with a
   located error — never an assert failure, Match_failure or stack
   overflow. *)
let gen_token_soup =
  let tokens =
    [| "int"; "double"; "void"; "for"; "if"; "else"; "while"; "return"; "break"; "("; ")"; "{";
       "}"; "["; "]"; ";"; ","; "+"; "-"; "*"; "/"; "%"; "="; "=="; "<"; "<="; "&&"; "||"; "?";
       ":"; "x"; "y"; "main"; "n"; "1"; "2"; "3.5"; "0"; "#pragma acc parallel loop";
       "#pragma acc data copy(x[0:n])"; "#pragma acc localaccess(x: stride(1))";
       "#pragma acc reductiontoarray(+: x)"; "sqrt"; "__length" |]
  in
  QCheck2.Gen.(
    map
      (fun picks -> String.concat " " (List.map (fun i -> tokens.(i mod Array.length tokens)) picks))
      (list_size (int_range 0 40) (int_bound 1000)))

let prop_frontend_total soup =
  (match Mgacc.parse_string ~name:"fuzz" soup with
  | program -> (
      match Mgacc.Typecheck.check_program program with
      | () -> ()
      | exception Mgacc.Loc.Error _ -> ())
  | exception Mgacc.Loc.Error _ -> ());
  true

let gen_pragma_soup =
  let words =
    [| "acc"; "parallel"; "loop"; "data"; "update"; "host"; "device"; "copy"; "copyin"; "copyout";
       "create"; "present"; "reduction"; "localaccess"; "reductiontoarray"; "stride"; "gang";
       "vector"; "if"; "enter"; "exit"; "("; ")"; "["; "]"; ":"; ","; "+"; "x"; "1"; "n" |]
  in
  QCheck2.Gen.(
    map
      (fun picks -> String.concat " " (List.map (fun i -> words.(i mod Array.length words)) picks))
      (list_size (int_range 0 15) (int_bound 1000)))

let prop_pragma_total payload =
  (match Mgacc.Parser.parse_directive ~file:"fuzz" ~line:1 payload with
  | _ -> ()
  | exception Mgacc.Loc.Error _ -> ());
  true

(* ---------------- Trace columns vs the list reference ---------------- *)

module Trace = Mgacc_sim.Trace

type trace_op =
  | Record of {
      pending : int list;  (** handed to [cause] first *)
      causes : int list;
      tag : string option;
      resource : string;
      label : string;
      category : Trace.category;
      start : float;
      dur : float;
      bytes : int;
    }
  | Clear

(* Names repeat (and come back as equal copies of a pooled string as well
   as the pooled string itself), carry quotes, backslashes and control
   characters, and include two ("gpu45447", "gpu60477") with the same
   [Hashtbl.hash], so a trace that told names apart by hash alone would
   merge their rows. *)
let trace_names =
  [| "gpu0"; "gpu1"; "pcie:p2p0-1"; "comm"; "gpu45447"; "gpu60477"; "k\"quote"; "back\\slash";
     "new\nline\t"; ""; "a:b" |]

let gen_trace_name =
  QCheck2.Gen.(
    map2
      (fun i copy ->
        let s = trace_names.(i) in
        if copy then String.sub s 0 (String.length s) else s)
      (int_bound (Array.length trace_names - 1))
      bool)

let gen_trace_ops =
  let open QCheck2.Gen in
  let id = int_range (-2) 14 in
  let record =
    map3
      (fun (pending, causes, tag) (resource, label, category) (start, dur, bytes) ->
        Record { pending; causes; tag; resource; label; category; start; dur; bytes })
      (triple (list_size (int_bound 2) id) (list_size (int_bound 3) id) (opt gen_trace_name))
      (triple gen_trace_name gen_trace_name
         (oneofl
            Trace.[ Kernel; Host_to_device; Device_to_host; Peer; Host_compute; Overhead ]))
      (triple
         (map (fun k -> float_of_int k /. 8.0) (int_bound 80))
         (map (fun k -> float_of_int k /. 16.0) (int_bound 40))
         (int_bound 5000))
  in
  list_size (int_bound 40) (frequency [ (12, record); (1, return Clear) ])

(* The columns and the reference hand out the same ids, and agree on
   every reading before each clear and at the end: the spans, the Chrome
   trace, the Gantt chart and the makespan. *)
let prop_trace_matches_reference ops =
  let t = Trace.create () and r = Ref_trace.create () in
  let same () =
    Trace.spans t = Ref_trace.spans r
    && Trace.to_chrome_json t = Ref_trace.to_chrome_json r
    && Trace.to_chrome_json ~process_name:"p\"q" t = Ref_trace.to_chrome_json ~process_name:"p\"q" r
    && Format.asprintf "%a" (Trace.pp_gantt ~width:40) t
       = Format.asprintf "%a" (Ref_trace.pp_gantt ~width:40) r
    && Int64.bits_of_float (Trace.makespan t) = Int64.bits_of_float (Ref_trace.makespan r)
  in
  List.for_all
    (function
      | Clear ->
          let agreed = same () in
          Trace.clear t;
          Ref_trace.clear r;
          agreed
      | Record { pending; causes; tag; resource; label; category; start; dur; bytes } ->
          let finish = start +. dur in
          List.iter (Trace.cause t) pending;
          List.iter (Ref_trace.cause r) pending;
          Trace.record t ~causes ?tag ~resource ~category ~label ~start ~finish ~bytes ()
          = Ref_trace.record r ~causes ?tag ~resource ~category ~label ~start ~finish ~bytes ())
    ops
  && same ()

let suite =
  [
    qtest ~long_factor:10 "trace: columns equal the list reference" gen_trace_ops
      prop_trace_matches_reference;
    qtest "interval set = set of points" gen_intervals prop_set_semantics;
    qtest "interval set stays normalized" gen_intervals prop_set_normalized;
    qtest "of_sorted_disjoint is identity on normalized sets" gen_intervals
      prop_of_sorted_disjoint_agrees;
    qtest "interval set ops match model" (QCheck2.Gen.pair gen_intervals gen_intervals) prop_set_ops;
    qtest ~count:10 "large interval set ops match the fold-based reference"
      (QCheck2.Gen.pair gen_large_intervals gen_large_intervals)
      agrees_with_reference;
    qtest ~long_factor:10 "bitset matches boolean array" gen_bit_ops prop_bitset;
    qtest "task split covers and balances" gen_split prop_split_covers;
    qtest "dirty runs equal marked set" gen_dirty prop_dirty_runs_match_marks;
    qtest "fabric respects physics" gen_transfers prop_fabric_bounds;
    qtest "fabric lone flow finishes exactly alone"
      QCheck2.Gen.(triple (int_range 0 2) (int_range 1 50_000_000) (int_bound 3))
      prop_fabric_lone_flow;
    qtest "fabric makespan monotone in bytes"
      QCheck2.Gen.(triple gen_transfers (int_bound 9) (int_range 1 10_000_000))
      prop_fabric_makespan_monotone;
    qtest ~count:300 ~long_factor:10 "fabric incremental allocator matches reference bit-for-bit"
      gen_fabric_batch prop_fabric_incremental_matches_reference;
    qtest ~count:300 "report category seconds = a running fold in charge order" gen_charges
      prop_report_matches_counter_fold;
    qtest ~count:120 "2-D tiles partition the index space" gen_tiling prop_tiles_partition;
    qtest ~count:15 "2-D stencil: lazy coherence matches eager bit-for-bit" gen_stencil
      prop_stencil_2d_lazy_eq_eager;
    qtest ~count:500 "affine form evaluates correctly" gen_affine_expr prop_affine_matches_eval;
    qtest ~count:400 "frontend is total on token soup" gen_token_soup prop_frontend_total;
    qtest ~count:400 "pragma parser is total on clause soup" gen_pragma_soup prop_pragma_total;
  ]
