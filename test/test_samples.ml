(* Every sample program in samples/ must compile, pass the translator, run
   on 2 simulated GPUs, and agree with the sequential reference on all of
   its double arrays. This keeps the user-facing corpus honest. *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let samples_dir =
  (* dune runs tests from the build sandbox; locate the repo's samples. *)
  let rec find dir =
    let candidate = Filename.concat dir "samples" in
    if Sys.file_exists candidate && Sys.is_directory candidate then Some candidate
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find parent
  in
  find (Sys.getcwd ())

let arrays_of env (program : Mgacc.Ast.program) =
  (* Every array declared in main that still exists at exit. *)
  match Mgacc.Ast.find_func program "main" with
  | None -> []
  | Some f ->
      List.filter_map
        (fun s ->
          match s.Mgacc.Ast.sdesc with
          | Mgacc.Ast.Sarray_decl (_, name, _) -> (
              match Mgacc.Host_interp.find_array_opt env name with
              | Some _ -> Some name
              | None -> None)
          | _ -> None)
        f.Mgacc.Ast.fbody

let check_sample path () =
  let program = Mgacc.parse_file path in
  (* The translator must produce plans without errors. *)
  let plans = Mgacc.compile program in
  check Alcotest.bool "has at least one parallel loop" true
    (Mgacc.Program_plan.loop_count plans >= 1);
  let ref_env = Mgacc.run_sequential program in
  let config = Mgacc.Rt_config.make ~num_gpus:2 (Mgacc.Machine.desktop ()) in
  let env, report = Mgacc.run_acc ~config program in
  check Alcotest.bool "executed loops" true (report.Mgacc.Report.loops >= 1);
  List.iter
    (fun name ->
      let view = Mgacc.Host_interp.find_array ref_env name in
      match view.Mgacc.View.elem with
      | Mgacc.Ast.Edouble ->
          let expected = Mgacc.float_results ref_env name in
          let got = Mgacc.float_results env name in
          Array.iteri
            (fun i v ->
              if Float.abs (v -. expected.(i)) > 1e-9 *. Float.max 1.0 (Float.abs expected.(i))
              then Alcotest.failf "%s: %s[%d] = %g, expected %g" path name i v expected.(i))
            got
      | Mgacc.Ast.Eint ->
          check (Alcotest.array Alcotest.int)
            (Printf.sprintf "%s: %s" path name)
            (Mgacc.int_results ref_env name) (Mgacc.int_results env name))
    (arrays_of ref_env program)

let suite =
  match samples_dir with
  | None -> [ tc "samples directory present" (fun () -> Alcotest.fail "samples/ not found") ]
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".c")
      |> List.sort compare
      |> List.map (fun f -> tc ("sample: " ^ f) (check_sample (Filename.concat dir f)))
