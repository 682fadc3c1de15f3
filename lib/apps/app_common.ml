open Mgacc

type t = { name : string; source : string; result_arrays : string list }

let parse app = parse_string ~name:(app.name ^ ".c") app.source

let sequential app = run_sequential (parse app)

let openmp ?threads ~machine app =
  run_openmp ?threads ~machine (parse app)

let pgi ~machine app =
  let options =
    {
      Kernel_plan.enable_distribution = false;
      enable_layout_transform = false;
      enable_miss_check_elim = false;
      enable_fusion = false;
      enable_decomp2d = false;
    }
  in
  let config = Rt_config.make ~num_gpus:1 ~translator:options machine in
  run_acc ~variant:"pgi(1)" ~config (parse app)

let proposal config app =
  run_acc ~variant:(Printf.sprintf "proposal(%d)" config.Rt_config.num_gpus) ~config (parse app)

let compare_floats name expected got =
  let n = Array.length expected in
  if Array.length got <> n then Error (Printf.sprintf "%s: length %d vs %d" name (Array.length got) n)
  else begin
    let bad = ref None in
    for i = 0 to n - 1 do
      if !bad = None then begin
        let e = expected.(i) and g = got.(i) in
        let tol = 1e-6 *. Float.max 1.0 (Float.abs e) in
        if Float.abs (e -. g) > tol then bad := Some (i, e, g)
      end
    done;
    match !bad with
    | None -> Ok ()
    | Some (i, e, g) -> Error (Printf.sprintf "%s[%d]: expected %.12g, got %.12g" name i e g)
  end

let compare_ints name expected got =
  let n = Array.length expected in
  if Array.length got <> n then Error (Printf.sprintf "%s: length %d vs %d" name (Array.length got) n)
  else begin
    let bad = ref None in
    for i = 0 to n - 1 do
      if !bad = None && expected.(i) <> got.(i) then bad := Some i
    done;
    match !bad with
    | None -> Ok ()
    | Some i -> Error (Printf.sprintf "%s[%d]: expected %d, got %d" name i expected.(i) got.(i))
  end

let verify app ~against env =
  List.fold_left
    (fun acc name ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          let view = Host_interp.find_array against name in
          match view.View.elem with
          | Ast.Edouble ->
              compare_floats name (float_results against name) (float_results env name)
          | Ast.Eint -> compare_ints name (int_results against name) (int_results env name)))
    (Ok ()) app.result_arrays

let check_exn app ~against env =
  match verify app ~against env with Ok () -> () | Error msg -> failwith (app.name ^ ": " ^ msg)
