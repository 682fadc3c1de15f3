(* Tests for the analysis passes: affine forms, loop extraction, access
   summaries, taint, coalescing, array configuration. *)

open Mgacc_minic
open Mgacc_analysis

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---------------- Affine ---------------- *)

let affine ?(uniform = [ "n"; "f"; "off" ]) src =
  let e = Parser.parse_expr ~file:"t" src in
  Affine.of_expr ~loop_var:"i" ~is_uniform:(fun v -> List.mem v uniform) e

let test_affine_forms () =
  (match affine "i" with
  | Some a ->
      check Alcotest.int "coeff" 1 a.Affine.coeff;
      check Alcotest.int "const" 0 a.Affine.const
  | None -> Alcotest.fail "i not affine");
  (match affine "3*i + 7" with
  | Some a ->
      check Alcotest.int "coeff 3" 3 a.Affine.coeff;
      check Alcotest.int "const 7" 7 a.Affine.const;
      check Alcotest.bool "literal" true (Affine.is_literal a)
  | None -> Alcotest.fail "3i+7 not affine");
  (match affine "i*3 - 2" with
  | Some a ->
      check Alcotest.int "coeff" 3 a.Affine.coeff;
      check Alcotest.int "const" (-2) a.Affine.const
  | None -> Alcotest.fail "i*3-2");
  (match affine "2*(i + 1) + i" with
  | Some a ->
      check Alcotest.int "coeff folded" 3 a.Affine.coeff;
      check Alcotest.int "const folded" 2 a.Affine.const
  | None -> Alcotest.fail "nested");
  (match affine "f*i + off" with
  | Some a ->
      (* Symbolic stride: coeff is not a literal, so of_expr can only keep
         it when the multiplier is constant — f*i must be rejected as a
         literal form but kept as... *)
      ignore a
  | None -> ());
  match affine "i*i" with
  | None -> ()
  | Some _ -> Alcotest.fail "i*i must not be affine"

let test_affine_uniform_terms () =
  match affine "4*i + off + 1" with
  | Some a ->
      check Alcotest.int "coeff" 4 a.Affine.coeff;
      check Alcotest.int "const" 1 a.Affine.const;
      check Alcotest.int "one term" 1 (List.length a.Affine.terms);
      check Alcotest.bool "not literal" false (Affine.is_literal a)
  | None -> Alcotest.fail "expected affine with symbolic term"

let test_affine_rejects_nonuniform () =
  (* j is not uniform: the whole expression is not affine in i. *)
  match affine ~uniform:[] "i + j" with
  | None -> ()
  | Some _ -> Alcotest.fail "i + j with non-uniform j"

(* ---------------- Loop extraction ---------------- *)

let first_loop src =
  let p = Parser.parse ~file:"t" src in
  match Loop_info.extract (Option.get (Ast.find_func p "main")) with
  | l :: _ -> l
  | [] -> Alcotest.fail "no parallel loop found"

let simple_loop body ?(pragma = "acc parallel loop") () =
  first_loop
    (Printf.sprintf
       "void main() { int n = 8; double a[n]; double b[n]; int idx[n]; int i;\n#pragma %s\nfor (i = 0; i < n; i++) { %s } }"
       pragma body)

let test_loop_extraction () =
  let l = simple_loop "a[i] = b[i] + 1.0;" () in
  check Alcotest.string "var" "i" l.Loop_info.loop_var;
  check Alcotest.int "id" 0 l.Loop_info.loop_id;
  check (Alcotest.list Alcotest.string) "arrays" [ "a"; "b" ] (Loop_info.arrays_mentioned l);
  check (Alcotest.list Alcotest.string) "free vars" [ "a"; "b" ] (Loop_info.free_vars l)

let test_loop_le_normalization () =
  let l =
    first_loop
      "void main() { int n = 8; double a[n]; int i;\n#pragma acc parallel loop\nfor (i = 0; i <= n - 2; i++) { a[i] = 0.0; } }"
  in
  (* i <= n-2  ==>  upper = (n-2)+1 *)
  check Alcotest.string "upper" "((n - 2) + 1)" (Pretty.expr_to_string l.Loop_info.upper)

let test_loop_rejects_bad_shapes () =
  let fails src =
    match first_loop src with
    | exception Loc.Error _ -> ()
    | _ -> Alcotest.fail "expected normalization error"
  in
  fails "void main() { int i;\n#pragma acc parallel loop\nfor (i = 0; i > 4; i++) { } }";
  fails "void main() { int i;\n#pragma acc parallel loop\nfor (i = 0; i < 4; i += 2) { } }";
  fails "void main() { int i;\n#pragma acc parallel loop\nfor (i = 4; i < 8; i--) { } }"

let test_loop_collects_directives () =
  let l =
    first_loop
      {|void main() { int n = 8; double a[n]; double s; int i;
#pragma acc localaccess(a: stride(1))
#pragma acc parallel loop reduction(+: s) localaccess(a: stride(2, 1, 1))
for (i = 0; i < n; i++) { s += a[i]; } }|}
  in
  check Alcotest.int "merged localaccess" 2 (List.length l.Loop_info.localaccess);
  check Alcotest.int "scalar reductions" 1 (List.length l.Loop_info.scalar_reductions)

let test_loop_array_reductions () =
  let l =
    simple_loop
      "int c = idx[i];\n#pragma acc reductiontoarray(+: a)\na[c] += b[i];" ()
  in
  check Alcotest.int "array reductions" 1 (List.length l.Loop_info.array_reductions);
  match l.Loop_info.array_reductions with
  | [ (Ast.Rplus, "a") ] -> ()
  | _ -> Alcotest.fail "wrong reduction record"

(* ---------------- Access & taint & coalesce ---------------- *)

let test_access_summary () =
  let l = simple_loop "a[i] = b[i] + b[i + 1] + a[i];" () in
  let acc = Access.analyze l in
  let a = Option.get (Access.find acc "a") in
  let b = Option.get (Access.find acc "b") in
  check Alcotest.int "a reads" 1 (List.length a.Access.reads);
  check Alcotest.int "a writes" 1 (List.length a.Access.writes);
  check Alcotest.int "b reads" 2 (List.length b.Access.reads);
  check Alcotest.bool "b read only" true (Access.read_only b);
  check Alcotest.bool "a not read only" false (Access.read_only a);
  check Alcotest.bool "all affine" true
    (List.for_all
       (fun idx ->
         match Access.classify_index l idx with Access.Affine _ -> true | Access.Dynamic -> false)
       b.Access.reads)

let test_access_compound_counts_read () =
  let l = simple_loop "a[i] += 1.0;" () in
  let acc = Access.analyze l in
  let a = Option.get (Access.find acc "a") in
  check Alcotest.int "compound also reads" 1 (List.length a.Access.reads);
  check Alcotest.int "writes" 1 (List.length a.Access.writes)

let test_access_reduction_separated () =
  let l = simple_loop "int c = idx[i];\n#pragma acc reductiontoarray(+: a)\na[c] += b[i];" () in
  let acc = Access.analyze l in
  let a = Option.get (Access.find acc "a") in
  check Alcotest.int "no plain writes" 0 (List.length a.Access.writes);
  check Alcotest.int "reduction writes" 1 (List.length a.Access.reduction_writes)

let test_taint () =
  let l =
    simple_loop
      "int c = idx[i]; int u = 7; int k; double s = 0.0; for (k = 0; k < 4; k++) { s = s + b[k]; } a[i] = s + c + u;"
      ()
  in
  let t = Taint.compute l in
  check Alcotest.bool "loop var tainted" true (Taint.is_tainted t "i");
  check Alcotest.bool "c tainted (data-dependent load)" true (Taint.is_tainted t "c");
  check Alcotest.bool "u untainted" false (Taint.is_tainted t "u");
  check Alcotest.bool "inner counter untainted" false (Taint.is_tainted t "k");
  check Alcotest.bool "s untainted (uniform accumulation)" false (Taint.is_tainted t "s")

(* For failure messages. *)
let mode_name = function
  | Coalesce.Broadcast -> "broadcast"
  | Coalesce.Coalesced -> "coalesced"
  | Coalesce.Strided s -> Printf.sprintf "strided(%d)" s
  | Coalesce.Random -> "random"

let test_coalesce_modes () =
  let l =
    simple_loop
      "int f = 4; int c = idx[i]; int k; double s = 0.0; for (k = 0; k < 4; k++) { s = s + a[i*4 + k] + b[k]; } a[i] = s + b[c];"
      ()
  in
  let cls = Coalesce.make l in
  let e src = Parser.parse_expr ~file:"t" src in
  (match cls (e "i") with Coalesce.Coalesced -> () | m -> Alcotest.failf "i: %s" (mode_name m));
  (match cls (e "i*4 + k") with
  | Coalesce.Strided 4 -> ()
  | m -> Alcotest.failf "i*4+k: %s" (mode_name m));
  (match cls (e "k") with Coalesce.Broadcast -> () | m -> Alcotest.failf "k: %s" (mode_name m));
  (match cls (e "c") with Coalesce.Random -> () | m -> Alcotest.failf "c: %s" (mode_name m));
  match Coalesce.apply_layout_transform (Coalesce.Strided 4) with
  | Coalesce.Coalesced -> ()
  | _ -> Alcotest.fail "layout transform must coalesce strided"

let test_inner_parallel () =
  let l =
    first_loop
      {|void main() { int rows = 8; int cols = 8; double u[rows][cols]; int r; int c;
#pragma acc parallel loop
for (r = 0; r < rows; r++) {
  #pragma acc loop vector(64)
  for (c = 0; c < cols; c++) { u[r][c] = 1.0; }
} }|}
  in
  match Loop_info.find_inner_parallel l with
  | Some (inner, width) ->
      check Alcotest.string "inner var" "c" inner.Loop_info.loop_var;
      check Alcotest.int "vector width" 64 width;
      (* Coalescing judged against c: u[r*cols + c] is unit-stride. *)
      let cls = Coalesce.make inner in
      (match cls (Parser.parse_expr ~file:"t" "(r * cols) + c") with
      | Coalesce.Coalesced -> ()
      | m -> Alcotest.failf "inner classification: %s" (mode_name m))
  | None -> Alcotest.fail "inner parallel loop not found"

let test_inner_parallel_default_width () =
  let l =
    first_loop
      {|void main() { int n = 8; double a[n]; int i; int j;
#pragma acc parallel loop
for (i = 0; i < n; i++) {
  #pragma acc loop
  for (j = 0; j < 4; j++) { a[i] = a[i] + 1.0; }
} }|}
  in
  match Loop_info.find_inner_parallel l with
  | Some (_, 32) -> ()
  | Some (_, w) -> Alcotest.failf "default width %d" w
  | None -> Alcotest.fail "not found"

(* ---------------- Array config ---------------- *)

let configs_of l = Array_config.build l (Access.analyze l)

let test_config_placement () =
  let l =
    simple_loop "a[i] = b[idx[i]];" ~pragma:"acc parallel loop localaccess(a: stride(1))" ()
  in
  let cfgs = configs_of l in
  let a = Option.get (Array_config.find cfgs "a") in
  let b = Option.get (Array_config.find cfgs "b") in
  check Alcotest.bool "a distributed" true (a.Array_config.placement = Array_config.Distributed);
  check Alcotest.bool "b replicated" true (b.Array_config.placement = Array_config.Replicated);
  check Alcotest.bool "a writes in window" true a.Array_config.writes_in_window

let test_config_write_outside_window () =
  let l =
    simple_loop "a[i + 1] = b[i];" ~pragma:"acc parallel loop localaccess(a: stride(1), b: stride(1))"
      ()
  in
  let cfgs = configs_of l in
  let a = Option.get (Array_config.find cfgs "a") in
  (* offset +1 escapes the owned block [i, i] -> miss checks required *)
  check Alcotest.bool "not in window" false a.Array_config.writes_in_window

let test_config_layout_transform () =
  let l =
    simple_loop "int k; double s = 0.0; for (k = 0; k < 4; k++) { s = s + b[i*4 + k]; } a[i] = s;"
      ~pragma:"acc parallel loop localaccess(b: stride(4), a: stride(1))" ()
  in
  let cfgs = configs_of l in
  let b = Option.get (Array_config.find cfgs "b") in
  check Alcotest.bool "b gets layout transform" true b.Array_config.layout_transform;
  check Alcotest.bool "b not already coalesced" false b.Array_config.coalesced_reads

let test_config_reduction_replicated () =
  let l = simple_loop "int c = idx[i];\n#pragma acc reductiontoarray(+: a)\na[c] += b[i];" () in
  let cfgs = configs_of l in
  let a = Option.get (Array_config.find cfgs "a") in
  check Alcotest.bool "reduction dest replicated" true
    (a.Array_config.placement = Array_config.Replicated);
  check Alcotest.bool "has reduction op" true (a.Array_config.reduction = Some Ast.Rplus)

let suite =
  [
    tc "affine: literal forms" test_affine_forms;
    tc "affine: uniform symbolic terms" test_affine_uniform_terms;
    tc "affine: rejects non-uniform vars" test_affine_rejects_nonuniform;
    tc "loop: extraction basics" test_loop_extraction;
    tc "loop: <= normalization" test_loop_le_normalization;
    tc "loop: rejects non-normalizable loops" test_loop_rejects_bad_shapes;
    tc "loop: merges directives" test_loop_collects_directives;
    tc "loop: collects array reductions" test_loop_array_reductions;
    tc "access: read/write summary" test_access_summary;
    tc "access: compound assignment reads" test_access_compound_counts_read;
    tc "access: reduction writes separated" test_access_reduction_separated;
    tc "taint: loop-index dependence" test_taint;
    tc "coalesce: mode classification" test_coalesce_modes;
    tc "nested parallelism: inner vector loop found" test_inner_parallel;
    tc "nested parallelism: default warp width" test_inner_parallel_default_width;
    tc "config: placement policy" test_config_placement;
    tc "config: out-of-window writes" test_config_write_outside_window;
    tc "config: layout transform candidates" test_config_layout_transform;
    tc "config: reduction destinations" test_config_reduction_replicated;
  ]
