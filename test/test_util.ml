(* Unit tests for Mgacc_util: PRNG, intervals, bitsets, stats, tables. *)

open Mgacc_util

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---------------- Xorshift ---------------- *)

let test_xorshift_deterministic () =
  let a = Xorshift.create 123 and b = Xorshift.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Xorshift.int a 1000000) (Xorshift.int b 1000000)
  done

let test_xorshift_bounds () =
  let r = Xorshift.create 7 in
  for _ = 1 to 1000 do
    let v = Xorshift.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done;
  for _ = 1 to 1000 do
    let v = Xorshift.float r 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of range: %f" v
  done

let test_xorshift_invalid () =
  let r = Xorshift.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Xorshift.int: bound <= 0") (fun () ->
      ignore (Xorshift.int r 0));
  Alcotest.check_raises "negative seed" (Invalid_argument "Xorshift.create: negative seed")
    (fun () -> ignore (Xorshift.create (-1)))

(* Every value below the bound comes up: the tests' random inputs reach
   the whole range they ask for. *)
let test_xorshift_covers () =
  let r = Xorshift.create 5 in
  let seen = Array.make 17 false in
  for _ = 1 to 1000 do
    seen.(Xorshift.int r 17) <- true
  done;
  check Alcotest.bool "all 17 values drawn" true (Array.for_all Fun.id seen)

let test_xorshift_gaussian () =
  let r = Xorshift.create 13 in
  let n = 20000 in
  let samples = Array.init n (fun _ -> Xorshift.gaussian r ~mean:3.0 ~stddev:2.0) in
  let m = Array.fold_left ( +. ) 0.0 samples /. float_of_int n in
  if Float.abs (m -. 3.0) > 0.1 then Alcotest.failf "gaussian mean %f" m;
  let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 samples in
  let s = sqrt (ss /. float_of_int (n - 1)) in
  if Float.abs (s -. 2.0) > 0.1 then Alcotest.failf "gaussian stddev %f" s

(* ---------------- Interval ---------------- *)

let iv = Alcotest.testable Interval.pp Interval.equal

let test_interval_basics () =
  let a = Interval.make 2 7 in
  check Alcotest.int "length" 5 (Interval.length a);
  check Alcotest.bool "contains lo" true (Interval.contains a 2);
  check Alcotest.bool "excludes hi" false (Interval.contains a 7);
  check iv "empty normalizes" Interval.empty (Interval.make 5 5);
  check iv "reversed normalizes" Interval.empty (Interval.make 9 3);
  check iv "intersect" (Interval.make 4 7) (Interval.clamp a ~lo:4 ~hi:11);
  check iv "disjoint intersect" Interval.empty (Interval.clamp a ~lo:9 ~hi:11);
  check iv "hull" (Interval.make 2 11) (Interval.hull a (Interval.make 9 11));
  check iv "hull with empty" a (Interval.hull a Interval.empty);
  check iv "clamp" (Interval.make 3 6) (Interval.clamp a ~lo:3 ~hi:6)

let test_interval_set_add_merge () =
  let open Interval in
  let s = Set.of_list [ make 0 3; make 5 8 ] in
  check Alcotest.int "two pieces" 2 (List.length (Set.to_list s));
  (* Adjacent intervals merge. *)
  let s2 = Set.add s (make 3 5) in
  check (Alcotest.list iv) "merged" [ make 0 8 ] (Set.to_list s2);
  (* Overlapping intervals merge. *)
  let s3 = Set.add s (make 2 6) in
  check (Alcotest.list iv) "overlap merged" [ make 0 8 ] (Set.to_list s3);
  check Alcotest.int "total length" 8 (Set.total_length s3)

let test_interval_set_ops () =
  let open Interval in
  let a = Set.of_list [ make 0 10; make 20 30 ] in
  let b = Set.of_list [ make 5 25 ] in
  check (Alcotest.list iv) "inter" [ make 5 10; make 20 25 ] (Set.to_list (Set.inter a b));
  check (Alcotest.list iv) "diff" [ make 0 5; make 25 30 ] (Set.to_list (Set.diff a b));
  check (Alcotest.list iv) "union"
    [ make 0 30 ]
    (Set.to_list (Set.union a b));
  check Alcotest.bool "subset yes" true (Set.subset (Set.of_interval (make 2 4)) a);
  check Alcotest.bool "subset no" false (Set.subset b a);
  check Alcotest.bool "mem" true (Set.mem a 25);
  check Alcotest.bool "not mem" false (Set.mem a 15)

(* Live relative perf gate: union + diff on a pair of overlapping sets of
   2048 short runs each, against the fold-based reference in
   Ref_interval. The linear sweeps measure about 1500x faster at this
   size, so the 10x bar only trips if a quadratic path comes back. CPU
   time, one warm-up call each; the fast side is averaged over repeats
   because one call is below the clock's resolution. *)
let test_interval_set_linear_perf_gate () =
  let rng = Xorshift.create 4099 in
  let runs n =
    let pos = ref (Xorshift.int rng 16) in
    Interval.Set.of_sorted_disjoint
      (List.init n (fun _ ->
           let lo = !pos in
           let hi = lo + 1 + Xorshift.int rng 8 in
           pos := hi + 1 + Xorshift.int rng 24;
           Interval.make lo hi))
  in
  let a = runs 2048 and b = runs 2048 in
  let ra = Ref_interval.of_set a and rb = Ref_interval.of_set b in
  let cpu ~reps f =
    let r = ref (f ()) in
    let t0 = Sys.time () in
    for _ = 1 to reps do
      r := f ()
    done;
    ((Sys.time () -. t0) /. float_of_int reps, !r)
  in
  let fast, (u, d) = cpu ~reps:200 (fun () -> (Interval.Set.union a b, Interval.Set.diff a b)) in
  let slow, (ru, rd) = cpu ~reps:1 (fun () -> (Ref_interval.union ra rb, Ref_interval.diff ra rb)) in
  check (Alcotest.list iv) "union agrees" ru (Interval.Set.to_list u);
  check (Alcotest.list iv) "diff agrees" rd (Interval.Set.to_list d);
  if fast *. 10.0 > slow then
    Alcotest.failf "linear union+diff only %.1fx faster than the reference (%.6fs vs %.6fs)"
      (slow /. fast) fast slow

(* ---------------- Bitset ---------------- *)

(* The number of set bits, as the runs see them. *)
let count b = Mgacc_util.Interval.Set.total_length (Bitset.runs b)

let test_bitset_basics () =
  let b = Bitset.create 100 in
  check Alcotest.int "initial count" 0 (count b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  check Alcotest.int "count" 3 (count b);
  check Alcotest.bool "get" true (Bitset.get b 63);
  check Alcotest.bool "unset" false (Bitset.get b 62);
  Bitset.clear_all b;
  check Alcotest.bool "cleared" false (Bitset.get b 63);
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index 100 out of [0,100)") (fun () ->
      Bitset.set b 100)

let test_bitset_ranges () =
  let b = Bitset.create 200 in
  for i = 10 to 49 do
    Bitset.set b i
  done;
  check Alcotest.int "range count" 40 (count b);
  let runs = Bitset.runs b in
  check Alcotest.int "one run" 1 (List.length (Mgacc_util.Interval.Set.to_list runs));
  check Alcotest.int "run length" 40 (Mgacc_util.Interval.Set.total_length runs)

let test_bitset_runs_multi () =
  let b = Bitset.create 64 in
  List.iter (Bitset.set b) [ 1; 2; 3; 9; 20; 21; 63 ];
  let runs = Mgacc_util.Interval.Set.to_list (Bitset.runs b) in
  check (Alcotest.list iv) "runs"
    Interval.[ make 1 4; make 9 10; make 20 22; make 63 64 ]
    runs

(* The dirty-run scan builds each run once: an interval and its list
   cell, 6 words. A scan that builds the list reversed and then reverses
   it takes 9 words per run and fails. *)
let test_bitset_runs_allocation () =
  let runs = 1000 in
  let b = Bitset.create (64 * runs) in
  for k = 0 to runs - 1 do
    Bitset.set b ((64 * k) + 1)
  done;
  ignore (Bitset.runs b);
  let before = Gc.minor_words () in
  let found = Bitset.runs b in
  let words = Gc.minor_words () -. before in
  check Alcotest.int "runs" runs (List.length (Mgacc_util.Interval.Set.to_list found));
  if words > float_of_int ((6 * runs) + 64) then
    Alcotest.failf "the scan of %d runs allocated %.0f minor words" runs words

(* [Dirty.clear] empties its bitsets with [clear_all]: no run survives
   it, and bits set afterwards form runs again. *)
let test_bitset_clear_all () =
  let b = Bitset.create 300 in
  for i = 40 to 199 do
    Bitset.set b i
  done;
  Bitset.clear_all b;
  check Alcotest.int "no run left" 0 (count b);
  check Alcotest.bool "bit cleared" false (Bitset.get b 100);
  Bitset.set b 299;
  check (Alcotest.list iv) "runs again" [ Interval.make 299 300 ]
    (Mgacc_util.Interval.Set.to_list (Bitset.runs b))

(* ---------------- Bytesize / Table ---------------- *)

let test_bytesize () =
  check Alcotest.string "bytes" "512B" (Bytesize.to_string 512);
  check Alcotest.string "kb" "2.0KB" (Bytesize.to_string 2048);
  check Alcotest.string "mb" "444.9MB" (Bytesize.to_string (int_of_float (444.9 *. 1048576.0)));
  check Alcotest.string "gb" "6.0GB" (Bytesize.to_string (6 * 1024 * 1024 * 1024))

let test_table () =
  let t = Table.create ~headers:[ "app"; "x" ] in
  Table.add_row t [ "md"; "1.5" ];
  Table.add_separator t;
  Table.add_row t [ "bfs"; "0.9" ];
  let s = Table.render t in
  check Alcotest.bool "has header" true (String.length s > 0);
  Alcotest.check_raises "bad row"
    (Invalid_argument "Table.add_row: 3 cells, expected 2")
    (fun () -> Table.add_row t [ "a"; "b"; "c" ])

(* ---------------- Pool ---------------- *)

let pool_workers = Domain.recommended_domain_count () - 1

(* [run] under [pool] with [n] tasks; how many times each index ran. *)
let run_counts pool n =
  let counts = Array.init n (fun _ -> Atomic.make 0) in
  Pool.run pool n (fun k -> Atomic.incr counts.(k));
  Array.map Atomic.get counts

let test_pool_runs_each_task_once () =
  let pool = Pool.create ~workers:pool_workers in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for n = 1 to 64 do
        Array.iteri
          (fun k c -> if c <> 1 then Alcotest.failf "%d tasks: task %d ran %d times" n k c)
          (run_counts pool n)
      done;
      check Alcotest.int "no task" 0 (Array.length (run_counts pool 0)))

let test_pool_zero_workers_inline () =
  let pool = Pool.create ~workers:0 in
  check Alcotest.int "no worker" 0 (Pool.workers pool);
  let self = (Domain.self () :> int) in
  let order = ref [] in
  Pool.run pool 8 (fun k ->
      if (Domain.self () :> int) <> self then Alcotest.fail "task left the caller's domain";
      order := k :: !order);
  check Alcotest.(list int) "in index order" [ 0; 1; 2; 3; 4; 5; 6; 7 ] (List.rev !order)

(* Workers persist: over 10,000 jobs, tasks run on the caller and on at
   most the pool's workers, never on a domain spawned for a job. In the
   first 100 jobs, task 0 waits (a bounded while) for a task to start
   elsewhere, so the workers take part. *)
let test_pool_reuses_workers () =
  let pool = Pool.create ~workers:pool_workers in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      check Alcotest.int "workers" pool_workers (Pool.workers pool);
      let self = (Domain.self () :> int) in
      let seen = Hashtbl.create 8 and ran_on = Array.make 4 0 and elsewhere = Atomic.make false in
      for job = 1 to 10_000 do
        Atomic.set elsewhere false;
        Pool.run pool 4 (fun k ->
            let d = (Domain.self () :> int) in
            ran_on.(k) <- d;
            if d <> self then Atomic.set elsewhere true
            else if k = 0 && job <= 100 && pool_workers > 0 then begin
              let spins = ref 0 in
              while (not (Atomic.get elsewhere)) && !spins < 1_000_000 do
                Domain.cpu_relax ();
                incr spins
              done
            end);
        Array.iter (fun d -> if d <> self then Hashtbl.replace seen d ()) ran_on
      done;
      if Hashtbl.length seen > pool_workers then
        Alcotest.failf "tasks ran on %d domains besides the caller, with %d workers"
          (Hashtbl.length seen) pool_workers;
      if pool_workers > 0 && Hashtbl.length seen = 0 then
        Alcotest.fail "no task ran on a worker")

let test_pool_survives_raising_task () =
  let pool = Pool.create ~workers:pool_workers in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let counts = Array.init 8 (fun _ -> Atomic.make 0) in
      Alcotest.check_raises "the lowest raising task's exception" (Failure "task 3") (fun () ->
          Pool.run pool 8 (fun k ->
              Atomic.incr counts.(k);
              if k = 3 || k = 6 then failwith (Printf.sprintf "task %d" k)));
      Array.iteri
        (fun k c -> check Alcotest.int (Printf.sprintf "task %d ran" k) 1 (Atomic.get c))
        counts;
      Array.iteri
        (fun k c -> check Alcotest.int (Printf.sprintf "next job: task %d" k) 1 c)
        (run_counts pool 16))

(* ---------------- Int_buf ---------------- *)

(* Across chunk boundaries (1,024 ints a chunk, the first one grown from
   16): what was pushed reads back, truncation keeps the prefix, pushes
   after a truncation overwrite, and [append] copies a suffix in order. *)
let test_int_buf () =
  let b = Int_buf.create () in
  for i = 0 to 4999 do
    Int_buf.push b (i * 7)
  done;
  check Alcotest.int "length" 5000 (Int_buf.length b);
  for i = 0 to 4999 do
    if Int_buf.get b i <> i * 7 then Alcotest.failf "get %d = %d" i (Int_buf.get b i)
  done;
  Int_buf.truncate b 1500;
  for i = 1500 to 2999 do
    Int_buf.push b (-i)
  done;
  check Alcotest.int "prefix kept" (1499 * 7) (Int_buf.get b 1499);
  check Alcotest.int "pushed after truncate" (-2048) (Int_buf.get b 2048);
  let d = Int_buf.create () in
  Int_buf.push d 42;
  Int_buf.append d b ~from:1000;
  check Alcotest.int "appended length" 2001 (Int_buf.length d);
  check Alcotest.int "head kept" 42 (Int_buf.get d 0);
  check Alcotest.int "suffix in order" (1000 * 7) (Int_buf.get d 1);
  check Alcotest.int "suffix end" (-2999) (Int_buf.get d 2000);
  Alcotest.check_raises "past the end" (Invalid_argument "Int_buf.get") (fun () ->
      ignore (Int_buf.get b 3000))

let suite =
  [
    tc "xorshift: deterministic" test_xorshift_deterministic;
    tc "xorshift: bounds" test_xorshift_bounds;
    tc "xorshift: invalid args" test_xorshift_invalid;
    tc "xorshift: int reaches every value below its bound" test_xorshift_covers;
    tc "xorshift: gaussian moments" test_xorshift_gaussian;
    tc "interval: basics" test_interval_basics;
    tc "interval set: add merges" test_interval_set_add_merge;
    tc "interval set: inter/diff/union/subset" test_interval_set_ops;
    tc "interval set: linear union+diff perf gate" test_interval_set_linear_perf_gate;
    tc "bitset: basics" test_bitset_basics;
    tc "bitset: ranges" test_bitset_ranges;
    tc "bitset: multi runs" test_bitset_runs_multi;
    tc "bitset: a run scan conses each run once" test_bitset_runs_allocation;
    tc "bitset: clear_all empties every run" test_bitset_clear_all;
    tc "bytesize: formatting" test_bytesize;
    tc "table: render and arity" test_table;
    tc "pool: every task runs once, 1 to 64 tasks" test_pool_runs_each_task_once;
    tc "pool: zero workers run a job inline, in order" test_pool_zero_workers_inline;
    tc "pool: 10,000 jobs reuse the same workers" test_pool_reuses_workers;
    tc "pool: a raising task leaves the workers working" test_pool_survives_raising_task;
    tc "int buffer: chunks, truncation and append" test_int_buf;
  ]
