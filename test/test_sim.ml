(* Unit tests for the simulation core (timelines, traces) and for the
   bag under the fabric's reference allocator (test/ref_fabric). *)

open Mgacc_sim
module Bag = Ref_fabric.Bag

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let test_bag_basics () =
  let b = Bag.create () in
  check Alcotest.bool "fresh is empty" true (Bag.is_empty b);
  List.iter (Bag.push b) [ 1; 2; 3; 4; 5 ];
  check Alcotest.int "length" 5 (Bag.length b);
  check Alcotest.int "get" 3 (Bag.get b 2);
  check (Alcotest.list Alcotest.int) "fold sees push order" [ 5; 4; 3; 2; 1 ]
    (Bag.fold (fun acc x -> x :: acc) [] b);
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Bag.get: 5 (length 5)") (fun () ->
      ignore (Bag.get b 5));
  Bag.clear b;
  check Alcotest.bool "cleared" true (Bag.is_empty b)

let test_bag_filter_stable () =
  let b = Bag.create () in
  for i = 1 to 10 do
    Bag.push b i
  done;
  let removed = ref [] in
  Bag.filter_in_place b ~keep:(fun x -> x mod 2 = 0) ~removed:(fun x -> removed := x :: !removed);
  check (Alcotest.list Alcotest.int) "survivors keep relative order" [ 2; 4; 6; 8; 10 ]
    (List.rev (Bag.fold (fun acc x -> x :: acc) [] b));
  check (Alcotest.list Alcotest.int) "removed seen in order" [ 1; 3; 5; 7; 9 ] (List.rev !removed)

let test_bag_no_retention () =
  (* filter_in_place must clear vacated slots so removed elements are
     collectable while the bag lives on. *)
  let b = Bag.create () in
  let w = Weak.create 1 in
  let () =
    let doomed = ref 7 in
    Weak.set w 0 (Some doomed);
    Bag.push b doomed;
    Bag.push b (ref 1);
    Bag.filter_in_place b ~keep:(fun r -> !r <> 7) ~removed:ignore
  in
  Gc.full_major ();
  Gc.full_major ();
  check Alcotest.bool "removed element was collected (bag still non-empty)" false (Weak.check w 0);
  check Alcotest.int "survivor intact" 1 (Bag.length b)

let test_timeline_serializes () =
  let t = Timeline.create "gpu0" in
  let s1, f1 = Timeline.reserve t ~ready:0.0 ~duration:2.0 in
  let s2, f2 = Timeline.reserve t ~ready:1.0 ~duration:1.0 in
  check (Alcotest.float 1e-12) "first starts at ready" 0.0 s1;
  check (Alcotest.float 1e-12) "first ends" 2.0 f1;
  check (Alcotest.float 1e-12) "second waits for resource" 2.0 s2;
  check (Alcotest.float 1e-12) "second ends" 3.0 f2;
  Timeline.reset t;
  check (Alcotest.float 1e-12) "reset" 0.0 (fst (Timeline.reserve t ~ready:0.0 ~duration:1.0))

let test_timeline_gap () =
  let t = Timeline.create "x" in
  let _ = Timeline.reserve t ~ready:0.0 ~duration:1.0 in
  let s, _ = Timeline.reserve t ~ready:5.0 ~duration:1.0 in
  check (Alcotest.float 1e-12) "idle gap honored" 5.0 s

let test_timeline_invalid () =
  let t = Timeline.create "x" in
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Timeline.reserve: negative duration") (fun () ->
      ignore (Timeline.reserve t ~ready:0.0 ~duration:(-1.0)))

let span t resource category start finish bytes =
  ignore (Trace.record t ~resource ~category ~label:"t" ~start ~finish ~bytes ())

let test_trace_totals () =
  let t = Trace.create () in
  span t "gpu0" Trace.Kernel 0.0 2.0 0;
  span t "pcie" Trace.Host_to_device 0.0 1.0 100;
  span t "pcie" Trace.Peer 2.0 3.0 50;
  check (Alcotest.float 1e-12) "makespan" 3.0 (Trace.makespan t);
  Trace.clear t;
  check Alcotest.int "cleared" 0 (List.length (Trace.spans t))

let test_trace_gantt_renders () =
  let t = Trace.create () in
  span t "gpu0" Trace.Kernel 0.0 1.0 0;
  let s = Format.asprintf "%a" (Trace.pp_gantt ~width:40) t in
  check Alcotest.bool "nonempty" true (String.length s > 10)

let suite =
  [
    tc "bag: push/get/fold/clear" test_bag_basics;
    tc "bag: stable filter_in_place" test_bag_filter_stable;
    tc "bag: removed values are not retained" test_bag_no_retention;
    tc "timeline: serializes reservations" test_timeline_serializes;
    tc "timeline: honors idle gaps" test_timeline_gap;
    tc "timeline: rejects bad input" test_timeline_invalid;
    tc "trace: totals and bytes" test_trace_totals;
    tc "trace: gantt renders" test_trace_gantt_renders;
  ]
