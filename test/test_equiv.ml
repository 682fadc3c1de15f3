(* Differential testing: random parallel-loop kernels must compute
   identical results through every execution path —

   - the compiled host path (sequential reference),
   - the closure-compiled executor on one simulated GPU,
   - the full multi-GPU runtime on two GPUs (distribution, dirty-bit
     reconciliation, the whole BSP pipeline).

   Programs are generated from a small grammar designed to be safe by
   construction (indices stay in range, divisors never vanish) while still
   covering arithmetic, gathers, conditionals, inner sequential loops,
   compound assignment and scalar reductions. Both executors evaluate the
   same AST with OCaml float semantics, so results must match bitwise. *)

module Gen = QCheck2.Gen

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------------- expression generator ---------------- *)

(* Double-valued expressions over: a[i], b[i], b[idx[i]] (gather), the loop
   index, an inner counter k (when inside the inner loop), literals, and a
   private accumulator t. *)
let gen_dexpr ~in_inner =
  let base =
    [
      (3, Gen.return "a[i]");
      (3, Gen.return "b[i]");
      (2, Gen.return "b[idx[i]]");
      (2, Gen.map (Printf.sprintf "%.3f") (Gen.float_bound_inclusive 8.0));
      (2, Gen.return "(1.0 * i)");
      (1, Gen.return "t");
    ]
    @ (if in_inner then [ (2, Gen.return "(1.0 * k)"); (2, Gen.return "b[(i + k) % n]") ] else [])
  in
  let leaf = Gen.frequency base in
  let rec node depth =
    if depth = 0 then leaf
    else
      Gen.frequency
        [
          (3, leaf);
          ( 2,
            Gen.map2 (Printf.sprintf "(%s + %s)") (node (depth - 1)) (node (depth - 1)) );
          ( 2,
            Gen.map2 (Printf.sprintf "(%s - %s)") (node (depth - 1)) (node (depth - 1)) );
          ( 2,
            Gen.map2 (Printf.sprintf "(%s * %s)") (node (depth - 1)) (node (depth - 1)) );
          (* Division kept away from zero. *)
          (1, Gen.map (fun e -> Printf.sprintf "(%s / (fabs(b[i]) + 1.5))" e) (node (depth - 1)));
          (1, Gen.map (Printf.sprintf "sqrt(fabs(%s))") (node (depth - 1)));
          (1, Gen.map (Printf.sprintf "fmax(%s, 0.25)") (node (depth - 1)));
          (1, Gen.map (Printf.sprintf "(0.0 - %s)") (node (depth - 1)));
        ]
  in
  node 2

(* ---------------- statement generator ---------------- *)

let gen_stmt =
  let open Gen in
  frequency
    [
      (4, map (Printf.sprintf "a[i] = %s;") (gen_dexpr ~in_inner:false));
      (2, map (Printf.sprintf "a[i] += %s;") (gen_dexpr ~in_inner:false));
      (2, map (Printf.sprintf "t = %s;") (gen_dexpr ~in_inner:false));
      ( 2,
        map2
          (Printf.sprintf "if (b[i] > %.3f) { a[i] = %s; } else { t = t + 1.0; }")
          (float_bound_inclusive 4.0)
          (gen_dexpr ~in_inner:false) );
      ( 2,
        map
          (Printf.sprintf "{ int k; for (k = 0; k < 3; k++) { t = t + %s; } }")
          (gen_dexpr ~in_inner:true) );
      (1, map (Printf.sprintf "s += %s;") (gen_dexpr ~in_inner:false));
      (1, return "if (i % 7 == 0) { a[i] = t; }");
    ]

let gen_body = Gen.map (String.concat "\n        ") (Gen.list_size (Gen.int_range 1 5) gen_stmt)

let program_of_body body =
  Printf.sprintf
    {|void main() {
      int n = 257;
      double a[n];
      double b[n];
      int idx[n];
      int i;
      double s = 0.0;
      for (i = 0; i < n; i++) {
        a[i] = 0.125 * i;
        b[i] = 1.0 * ((i * 13) %% 17) - 4.0;
        idx[i] = (i * 31 + 7) %% n;
      }
      #pragma acc parallel loop reduction(+: s) localaccess(a: stride(1))
      for (i = 0; i < n; i++) {
        double t = 0.5;
        %s
      }
      a[0] = a[0] + 0.0;
    }|}
    body

let prop_equivalent body =
  let src = program_of_body body in
  let program =
    try Mgacc.parse_string ~name:"gen.c" src
    with Mgacc.Loc.Error (loc, msg) ->
      QCheck2.Test.fail_reportf "generated program does not parse: %s: %s@.%s"
        (Mgacc.Loc.to_string loc) msg src
  in
  let expected =
    try
      let env = Mgacc.run_sequential program in
      (Mgacc.float_results env "a", Mgacc.Host_interp.get_scalar env "s")
    with e ->
      QCheck2.Test.fail_reportf "sequential reference failed: %s@.%s" (Printexc.to_string e) src
  in
  let check_variant label env =
    let got = Mgacc.float_results env "a" in
    Array.iteri
      (fun j v ->
        if not (Float.equal v (fst expected).(j)) then
          QCheck2.Test.fail_reportf "%s: a[%d] = %.17g, reference %.17g@.%s" label j v
            (fst expected).(j) src)
      got;
    match (Mgacc.Host_interp.get_scalar env "s", snd expected) with
    | Mgacc.Host_interp.Vfloat g, Mgacc.Host_interp.Vfloat e ->
        (* Multi-GPU reduction reassociates the sum; allow relative eps. *)
        if Float.abs (g -. e) > 1e-9 *. Float.max 1.0 (Float.abs e) then
          QCheck2.Test.fail_reportf "%s: s = %.17g, reference %.17g@.%s" label g e src
    | _ -> QCheck2.Test.fail_reportf "%s: scalar kind mismatch" label
  in
  List.iter
    (fun gpus ->
      let machine = Mgacc.Machine.desktop () in
      let config = Mgacc.Rt_config.make ~num_gpus:gpus machine in
      match Mgacc.run_acc ~config program with
      | env, _ -> check_variant (Printf.sprintf "%d GPU(s)" gpus) env
      | exception e ->
          QCheck2.Test.fail_reportf "%d GPU(s) raised %s@.%s" gpus (Printexc.to_string e) src)
    [ 1; 2 ];
  (let machine = Mgacc.Machine.desktop () in
   match Mgacc.run_openmp ~machine program with
   | env, _ -> check_variant "openmp" env
   | exception e ->
       QCheck2.Test.fail_reportf "openmp raised %s@.%s" (Printexc.to_string e) src);
  true

let suite =
  [ qtest "random kernels: all execution paths agree" gen_body prop_equivalent ]
