open Mgacc_minic
module Machine = Mgacc_gpusim.Machine
module Cpu_model = Mgacc_gpusim.Cpu_model
module Host_interp = Mgacc_exec.Host_interp
module Frame = Mgacc_exec.Frame
module View = Mgacc_exec.View
module Kernel_compile = Mgacc_exec.Kernel_compile
module Loop_info = Mgacc_analysis.Loop_info
module Coalesce = Mgacc_analysis.Coalesce

type state = {
  machine : Machine.t;
  threads : int;
  profiler : Profiler.t;
  compiled : (Loc.t, Kernel_compile.t) Hashtbl.t;
  mutable clock : float;
}

let param_types env loop =
  List.map
    (fun name ->
      match Host_interp.find_array_opt env name with
      | Some view -> (name, Ast.Tarray view.View.elem)
      | None -> (
          match Host_interp.get_scalar env name with
          | Host_interp.Vint _ -> (name, Ast.Tint)
          | Host_interp.Vfloat _ -> (name, Ast.Tdouble)))
    (Loop_info.free_vars loop)

let compiled_for st env (loop : Loop_info.t) =
  match Hashtbl.find_opt st.compiled loop.Loop_info.loop_loc with
  | Some kc -> kc
  | None ->
      let classify_site = Coalesce.make loop in
      (* CPU hardware prefetchers stream constant-stride accesses as well
         as unit-stride ones; only data-dependent gathers miss. *)
      let classify _array idx =
        match classify_site idx with Coalesce.Strided _ -> Coalesce.Coalesced | m -> m
      in
      let kc = Kernel_compile.compile ~loop ~params:(param_types env loop) ~classify in
      Hashtbl.replace st.compiled loop.Loop_info.loop_loc kc;
      kc

let on_parallel_loop st env (loop : Loop_info.t) =
  Profiler.incr_loops st.profiler;
  let kc = compiled_for st env loop in
  let lo = Host_interp.eval_int env loop.Loop_info.lower in
  let hi = Host_interp.eval_int env loop.Loop_info.upper in
  let frame = kc.Kernel_compile.make_frame () in
  List.iter
    (fun (name, slot, ty) ->
      match ty with
      | Ast.Tarray _ -> Frame.set_view frame slot (Host_interp.find_array env name)
      | Ast.Tint -> (
          match Host_interp.get_scalar env name with
          | Host_interp.Vint n -> Frame.set_int frame slot n
          | Host_interp.Vfloat f -> Frame.set_int frame slot (int_of_float f))
      | Ast.Tdouble -> (
          match Host_interp.get_scalar env name with
          | Host_interp.Vfloat f -> Frame.set_float frame slot f
          | Host_interp.Vint n -> Frame.set_float frame slot (float_of_int n))
      | Ast.Tvoid -> assert false)
    kc.Kernel_compile.params;
  for i = lo to hi - 1 do
    kc.Kernel_compile.run_iter frame i
  done;
  (* Sequential in-order execution makes shared-scalar semantics exact:
     write every scalar parameter back (covers reduction variables). *)
  List.iter
    (fun (name, slot, ty) ->
      match ty with
      | Ast.Tint -> Host_interp.set_scalar env name (Host_interp.Vint (Frame.get_int frame slot))
      | Ast.Tdouble ->
          Host_interp.set_scalar env name (Host_interp.Vfloat (Frame.get_float frame slot))
      | Ast.Tarray _ | Ast.Tvoid -> ())
    kc.Kernel_compile.params;
  let label = Printf.sprintf "omp-loop%d" loop.Loop_info.loop_id in
  let _, finish =
    Machine.host_compute st.machine ~ready:st.clock ~threads:st.threads ~label frame.Frame.cost
  in
  Profiler.charge st.profiler Mgacc_obs.Blame.Kernel ~label ~exposed:(finish -. st.clock)
    ~hidden:0.0 ~bytes:0 ~spans:[];
  st.clock <- finish

let run ?threads ~machine program =
  let threads = Option.value ~default:machine.Machine.default_omp_threads threads in
  let st =
    { machine; threads; profiler = Profiler.create (); compiled = Hashtbl.create 8; clock = 0.0 }
  in
  let hooks =
    {
      Host_interp.on_parallel_loop = (fun env loop -> on_parallel_loop st env loop);
      on_data_enter = (fun _ _ -> ());
      on_data_exit = (fun _ _ -> ());
      on_update_host = (fun _ _ -> ());
      on_update_device = (fun _ _ -> ());
    }
  in
  let env = Host_interp.run_program ~hooks program in
  ( env,
    Report.of_profiler st.profiler ~machine:machine.Machine.name
      ~variant:(Printf.sprintf "openmp(%d)" threads)
      ~num_gpus:0 )
