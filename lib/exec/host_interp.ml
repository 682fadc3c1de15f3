open Mgacc_minic
open Ast
module Loop_info = Mgacc_analysis.Loop_info

type value = Vint of int | Vfloat of float

type env = {
  run : run;
  frame : Frame.t;
  scope : Frame.scope;  (** the names in force at the pragma *)
  sequential : Frame.t -> int -> int -> unit;  (** a loop hook's iterations, in place *)
}

and run = {
  prog : program;
  hooks : hooks;
  code : Kernel_compile.host Lazy.t;
  loop_ids : (Loc.t, int) Hashtbl.t;
}

and hooks = {
  on_parallel_loop : env -> Loop_info.t -> unit;
  on_data_enter : env -> clause list -> unit;
  on_data_exit : env -> clause list -> unit;
  on_update_host : env -> subarray list -> unit;
  on_update_device : env -> subarray list -> unit;
}

let no_loop _ _ _ = invalid_arg "Host_interp.run_loop_sequentially: not a parallel-loop hook's env"

(* What each directive site does when execution reaches it. *)
let stager run =
  let h = run.hooks in
  let directive scope s inner =
    let env fr = { run; frame = fr; scope; sequential = no_loop } in
    match s.sdesc with
    | Spragma (Ddata clauses, _) ->
        fun fr ->
          let env = env fr in
          h.on_data_enter env clauses;
          (try inner fr
           with e ->
             h.on_data_exit env clauses;
             raise e);
          h.on_data_exit env clauses
    | Spragma (Denter_data clauses, _) ->
        fun fr ->
          h.on_data_enter (env fr) clauses;
          inner fr
    | Spragma (Dexit_data clauses, _) ->
        fun fr ->
          h.on_data_exit (env fr) clauses;
          inner fr
    | Spragma (Dupdate_host subs, _) ->
        fun fr ->
          h.on_update_host (env fr) subs;
          inner fr
    | Spragma (Dupdate_device subs, _) ->
        fun fr ->
          h.on_update_device (env fr) subs;
          inner fr
    | _ -> assert false
  in
  let parallel_loop scope proto sequential =
    (* Loop ids are stable per source location, numbered in the order loops
       first execute. *)
    let loop = ref None in
    fun fr ->
      let loop =
        match !loop with
        | Some l -> l
        | None ->
            let loc = proto.Loop_info.loop_loc in
            let id =
              match Hashtbl.find_opt run.loop_ids loc with
              | Some id -> id
              | None ->
                  let id = Hashtbl.length run.loop_ids in
                  Hashtbl.replace run.loop_ids loc id;
                  id
            in
            let l = { proto with Loop_info.loop_id = id } in
            loop := Some l;
            l
      in
      h.on_parallel_loop { run; frame = fr; scope; sequential } loop
  in
  { Kernel_compile.directive; parallel_loop }

(* ------------------------------------------------------------------ *)
(* Public API.                                                         *)
(* ------------------------------------------------------------------ *)

let eval_int env e = Kernel_compile.eval_int (Lazy.force env.run.code) env.scope e env.frame
let eval_float env e = Kernel_compile.eval_float (Lazy.force env.run.code) env.scope e env.frame

let find_array_opt env name =
  match Frame.lookup_in env.scope name with
  | Some (Frame.View_slot i, _) ->
      let v = env.frame.Frame.views.(i) in
      if v == View.unbound then None else Some v
  | _ -> None

let find_array env name =
  match find_array_opt env name with Some v -> v | None -> raise Not_found

let scalar_slot env name =
  match Frame.lookup_in env.scope name with
  | Some ((Frame.Int_slot _ | Frame.Float_slot _) as slot, _) -> slot
  | Some (Frame.View_slot _, _) ->
      invalid_arg (Printf.sprintf "Host_interp: %s is an array, not a scalar" name)
  | None -> Loc.error Loc.dummy "undefined variable %s" name

let get_scalar env name =
  match scalar_slot env name with
  | Frame.Int_slot i -> Vint env.frame.Frame.ints.(i)
  | slot -> Vfloat (Frame.get_float env.frame slot)

let set_scalar env name v =
  match (scalar_slot env name, v) with
  | (Frame.Int_slot _ as slot), Vint n -> Frame.set_int env.frame slot n
  | (Frame.Int_slot _ as slot), Vfloat f -> Frame.set_int env.frame slot (int_of_float f)
  | slot, Vint n -> Frame.set_float env.frame slot (float_of_int n)
  | slot, Vfloat f -> Frame.set_float env.frame slot f

let run_loop_sequentially env (loop : Loop_info.t) =
  let lo = eval_int env loop.Loop_info.lower in
  let hi = eval_int env loop.Loop_info.upper in
  env.sequential env.frame lo hi

let sequential_hooks =
  {
    on_parallel_loop = (fun env loop -> run_loop_sequentially env loop);
    on_data_enter = (fun _ _ -> ());
    on_data_exit = (fun _ _ -> ());
    on_update_host = (fun _ _ -> ());
    on_update_device = (fun _ _ -> ());
  }

let run_program ?(hooks = sequential_hooks) prog =
  Typecheck.check_program prog;
  (match find_func prog "main" with
  | None -> Loc.error Loc.dummy "program has no main function"
  | Some f -> if f.fparams <> [] then Loc.error f.floc "main must take no parameters");
  let rec run =
    { prog; hooks; code = lazy (Kernel_compile.host prog (stager run)); loop_ids = Hashtbl.create 8 }
  in
  let scope, exec = Kernel_compile.compile_function (Lazy.force run.code) "main" in
  { run; frame = exec (); scope; sequential = no_loop }
