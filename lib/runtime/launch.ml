open Mgacc_minic
module Cost = Mgacc_gpusim.Cost
module Memory = Mgacc_gpusim.Memory
module View = Mgacc_exec.View
module Frame = Mgacc_exec.Frame
module Kernel_compile = Mgacc_exec.Kernel_compile
module Host_interp = Mgacc_exec.Host_interp
module Kernel_plan = Mgacc_translator.Kernel_plan
module Tile2d = Mgacc_analysis.Tile2d
module Interval = Mgacc_util.Interval
module Pool = Mgacc_util.Pool

exception No_fault

(* One launch's per-task state, task [k] being the [k]-th GPU with work.
   A compiled kernel keeps it from launch to launch, so a launch's
   bookkeeping allocates no arrays once the kernel has run on as many GPUs. *)
type slots = {
  mutable ranges : Task_map.range array;  (* the launch's ranges, by GPU *)
  mutable gpus : int array;  (* task k's GPU *)
  mutable frames : Frame.t array;  (* task k's frame; [idle] between launches *)
  mutable faults : exn array;  (* what task k's iterations raised, else [No_fault] *)
  idle : Frame.t;
}

type compiled = {
  kc : Kernel_compile.t;
  slots : slots;
  task : int -> unit;  (* runs task k's iterations in its frame *)
}

let task_words : (gpu:int -> iterations:int -> words:float -> unit) option ref = ref None

let iterate (kc : Kernel_compile.t) frame (range : Task_map.range) =
  for i = range.Task_map.start_ to range.Task_map.stop_ - 1 do
    kc.Kernel_compile.run_iter frame i
  done

(* A task records its fault instead of raising it, so every task of a
   launch runs and the caller picks the lowest GPU's fault. *)
let task kc s k =
  let frame = s.frames.(k) and range = s.ranges.(s.gpus.(k)) in
  match !task_words with
  | None -> ( try iterate kc frame range with e -> s.faults.(k) <- e)
  | Some report ->
      let before = Gc.minor_words () in
      (try iterate kc frame range with e -> s.faults.(k) <- e);
      let words = Gc.minor_words () -. before in
      report ~gpu:s.gpus.(k) ~iterations:(Task_map.length range) ~words

let compile_kernel plan ~param_types =
  (* Under a 2-D plan the inner column loop is restricted to
     [[__col_lo, __col_hi)], bound per GPU at launch; with the sentinel
     bounds the kernel behaves exactly like the unrestricted one. *)
  let loop, param_types =
    match plan.Kernel_plan.tile2d with
    | Some t2 ->
        ( Tile2d.restrict_columns plan.Kernel_plan.loop ~inner_var:t2.Tile2d.inner_var,
          param_types @ [ (Tile2d.col_lo_param, Ast.Tint); (Tile2d.col_hi_param, Ast.Tint) ] )
    | None -> (plan.Kernel_plan.loop, param_types)
  in
  let kc =
    Kernel_compile.compile ~loop ~params:param_types ~classify:(Kernel_plan.classifier plan)
  in
  let slots =
    {
      ranges = [||];
      gpus = [||];
      frames = [||];
      faults = [||];
      idle = kc.Kernel_compile.make_frame ();
    }
  in
  { kc; slots; task = task kc slots }

exception Window_violation of { array : string; index : int; gpu : int; what : string }

type gpu_run = { gpu : int; iterations : int; cost : Cost.t }

(* ------------------------------------------------------------------ *)
(* Views implementing the translator's instrumentation.                *)
(* ------------------------------------------------------------------ *)

let no_reduce_f name : Ast.redop -> int -> float array -> int -> unit =
 fun _ _ _ _ -> invalid_arg (Printf.sprintf "array %s is not a reduction destination" name)

let no_reduce_i name : Ast.redop -> int -> int -> unit =
 fun _ _ _ -> invalid_arg (Printf.sprintf "array %s is not a reduction destination" name)

(* An out-of-range subscript names the array. The device views test the
   range inline in front of unchecked access (as [View.of_float_array]
   does), so a kernel does the work of the implicit check it replaces. *)
let out_of_bounds name length i = raise (View.Bounds { name; index = i; length })

(* Replicated array on one GPU: direct access, dirty marking on writes. The
   dirty-bit instrumentation the translator inserts costs a couple of
   integer ops per write, charged to the kernel's cost record. Compiled
   reads inside [0, length) go straight to the replica. *)
let replicated_view (da : Darray.t) ~gpu ~(dirty : Dirty.t option) ~(cost : Cost.t) =
  let buf = Darray.buf_for da ~gpu in
  let name = da.Darray.name and length = da.Darray.length in
  match da.Darray.elem with
  | Ast.Edouble ->
      let data = Memory.float_data buf in
      let store_f =
        match dirty with
        | Some d ->
            fun i bank s ->
              if i < 0 || i >= length then out_of_bounds name length i;
              Array.unsafe_set data i bank.(s);
              cost.Cost.int_ops <- cost.Cost.int_ops + 2;
              Dirty.mark d i
        | None ->
            fun i bank s ->
              if i < 0 || i >= length then out_of_bounds name length i;
              Array.unsafe_set data i bank.(s)
      in
      View.doubles ~name ~length ~data ~lo:0 ~hi:length
        ~load_f:(fun i bank s ->
          if i < 0 || i >= length then out_of_bounds name length i;
          bank.(s) <- Array.unsafe_get data i)
        ~store_f ~reduce_f:(no_reduce_f name)
  | Ast.Eint ->
      let data = Memory.int_data buf in
      let set_i =
        match dirty with
        | Some d ->
            fun i v ->
              if i < 0 || i >= length then out_of_bounds name length i;
              Array.unsafe_set data i v;
              cost.Cost.int_ops <- cost.Cost.int_ops + 2;
              Dirty.mark d i
        | None ->
            fun i v ->
              if i < 0 || i >= length then out_of_bounds name length i;
              Array.unsafe_set data i v
      in
      View.ints ~name ~length ~data ~lo:0 ~hi:length
        ~get_i:(fun i ->
          if i < 0 || i >= length then out_of_bounds name length i;
          Array.unsafe_get data i)
        ~set_i ~reduce_i:(no_reduce_i name)

(* Replicated array that is a reduction destination: reads see the
   pre-loop values; reduction updates go to the GPU's partial, which a
   double view exposes as its reduction window. *)
let reduction_view (da : Darray.t) ~gpu (red : Reduction.t) =
  let buf = Darray.buf_for da ~gpu in
  let name = da.Darray.name and length = da.Darray.length in
  let declared = Reduction.op red in
  let check_op op =
    if op <> declared then
      invalid_arg
        (Printf.sprintf "array %s: reduction operator mismatch (%s declared)" name
           (Ast.redop_to_string declared))
  in
  let plain_write () = invalid_arg (name ^ ": plain write to a reduction destination") in
  match da.Darray.elem with
  | Ast.Edouble ->
      let data = Memory.float_data buf in
      View.with_reduction_window
        (View.doubles ~name ~length ~data ~lo:0 ~hi:length
           ~load_f:(fun i bank s ->
             if i < 0 || i >= length then out_of_bounds name length i;
             bank.(s) <- Array.unsafe_get data i)
           ~store_f:(fun _ _ _ -> plain_write ())
           ~reduce_f:(fun op i bank s ->
             check_op op;
             if i < 0 || i >= length then out_of_bounds name length i;
             Reduction.reduce_f red ~gpu i bank s))
        ~into:(Reduction.partial_f red ~gpu) ~op:declared
        ~touch:(fun () -> Reduction.touch red ~gpu)
  | Ast.Eint ->
      let data = Memory.int_data buf in
      View.ints ~name ~length ~data ~lo:0 ~hi:length
        ~get_i:(fun i ->
          if i < 0 || i >= length then out_of_bounds name length i;
          Array.unsafe_get data i)
        ~set_i:(fun _ _ -> plain_write ())
        ~reduce_i:(fun op i v ->
          check_op op;
          if i < 0 || i >= length then out_of_bounds name length i;
          Reduction.reduce_i red ~gpu i v)

(* Out-of-block writes on a distributed array: with the miss check, a
   checked write costs one int op and a missed one a buffered transaction
   of [bytes], which the caller then records; without it, a directive
   violation. A write outside the array is a bounds error either way. *)
let miss_write ~miss_check ~(cost : Cost.t) ~name ~length ~gpu ~what ~bytes i =
  if i < 0 || i >= length then out_of_bounds name length i;
  if not miss_check then raise (Window_violation { array = name; index = i; gpu; what });
  cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
  cost.Cost.random_bytes <- cost.Cost.random_bytes + bytes

(* 2-D variant: the part's buffer is a packed [trow_win x tcol_win] box;
   membership and offsets go through the tile-aware [Darray] helpers. The
   instrumentation cost model is identical to the 1-D view (the 2-D index
   arithmetic folds into the same address computation on real hardware).
   The box is not one range of logical indices, so the read window is
   empty and every read goes through the accessors. *)
let tiled_distributed_view (da : Darray.t) (part : Darray.part) ~gpu ~miss_check ~(cost : Cost.t) =
  let name = da.Darray.name and length = da.Darray.length in
  let spec =
    match da.Darray.state with Darray.Distributed d -> d.Darray.spec | _ -> assert false
  in
  let off i = Darray.offset_in_part spec part i in
  let owns i = Darray.part_owns spec part i in
  let check_read i =
    if not (Darray.part_contains spec part i) then begin
      if i < 0 || i >= length then out_of_bounds name length i;
      raise (Window_violation { array = name; index = i; gpu; what = "read outside window" })
    end
  in
  let miss =
    miss_write ~miss_check ~cost ~name ~length ~gpu
      ~what:"write outside owned tile (miss checks eliminated)"
  in
  let check () = if miss_check then cost.Cost.int_ops <- cost.Cost.int_ops + 1 in
  match da.Darray.elem with
  | Ast.Edouble ->
      let data = Memory.float_data part.Darray.buf in
      View.doubles ~name ~length ~data ~lo:0 ~hi:0
        ~load_f:(fun i bank s ->
          check_read i;
          bank.(s) <- data.(off i))
        ~store_f:(fun i bank s ->
          check ();
          if owns i then data.(off i) <- bank.(s)
          else begin
            miss ~bytes:12 i;
            Miss_buffer.record_f part.Darray.miss i bank s
          end)
        ~reduce_f:(no_reduce_f name)
  | Ast.Eint ->
      let data = Memory.int_data part.Darray.buf in
      View.ints ~name ~length ~data ~lo:0 ~hi:0
        ~get_i:(fun i ->
          check_read i;
          data.(off i))
        ~set_i:(fun i v ->
          check ();
          if owns i then data.(off i) <- v
          else begin
            miss ~bytes:8 i;
            Miss_buffer.record_i part.Darray.miss i v
          end)
        ~reduce_i:(no_reduce_i name)

(* Distributed array: logical indices translate into the partition; reads
   must stay in the declared window, which is also the view's read window;
   writes are ownership-checked. When the check is eliminated, an
   out-of-block write is a directive violation. *)
let distributed_view (da : Darray.t) ~gpu ~miss_check ~(cost : Cost.t) =
  let part = Darray.part_for da ~gpu in
  let name = da.Darray.name and length = da.Darray.length in
  match part.Darray.tile with
  | Some _ -> tiled_distributed_view da part ~gpu ~miss_check ~cost
  | None -> (
      let win = part.Darray.window and own = part.Darray.own in
      let lo = win.Interval.lo and hi = win.Interval.hi in
      let check_read i =
        if not (Interval.contains win i) then begin
          if i < 0 || i >= length then out_of_bounds name length i;
          raise (Window_violation { array = name; index = i; gpu; what = "read outside window" })
        end
      in
      let miss =
        miss_write ~miss_check ~cost ~name ~length ~gpu
          ~what:"write outside owned block (miss checks eliminated)"
      in
      match da.Darray.elem with
      | Ast.Edouble ->
          let data = Memory.float_data part.Darray.buf in
          View.doubles ~name ~length ~data ~lo ~hi
            ~load_f:(fun i bank s ->
              check_read i;
              bank.(s) <- data.(i - lo))
            ~store_f:(fun i bank s ->
              if miss_check then cost.Cost.int_ops <- cost.Cost.int_ops + 1;
              if Interval.contains own i then data.(i - lo) <- bank.(s)
              else begin
                miss ~bytes:12 i;
                Miss_buffer.record_f part.Darray.miss i bank s
              end)
            ~reduce_f:(no_reduce_f name)
      | Ast.Eint ->
          let data = Memory.int_data part.Darray.buf in
          View.ints ~name ~length ~data ~lo ~hi
            ~get_i:(fun i ->
              check_read i;
              data.(i - lo))
            ~set_i:(fun i v ->
              if miss_check then cost.Cost.int_ops <- cost.Cost.int_ops + 1;
              if Interval.contains own i then data.(i - lo) <- v
              else begin
                miss ~bytes:8 i;
                Miss_buffer.record_i part.Darray.miss i v
              end)
            ~reduce_i:(no_reduce_i name))

let view_for plan ~gpu ~cost ~get_darray ~get_reduction name =
  let da = get_darray name in
  match get_reduction name with
  | Some red -> reduction_view da ~gpu red
  | None -> (
      match Kernel_plan.placement_of plan name with
      | Mgacc_analysis.Array_config.Replicated ->
          let dirty =
            match da.Darray.state with
            | Darray.Replicated r -> r.Darray.dirty.(gpu)
            | _ -> None
          in
          replicated_view da ~gpu ~dirty ~cost
      | Mgacc_analysis.Array_config.Distributed ->
          distributed_view da ~gpu ~miss_check:(Kernel_plan.needs_miss_check plan name) ~cost)

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)
(* ------------------------------------------------------------------ *)

(* Bind phase: GPU [gpu]'s frame, its views and its scalars, and what they
   prove of its strip operands over [range], on the calling domain. The
   GPUs are bound one after another, so each GPU's
   frame would sit next to the previous GPU's views, while the two run
   on different domains. A task writes its frame on every iteration: the
   72 bytes allocated first keep it off the cache lines the previous
   GPU's task reads (sharing them made kmeans-paper's runs about a
   quarter slower). *)
let bind_gpu ?col_bounds plan compiled ~gpu ~(range : Task_map.range) ~get_scalar ~get_darray
    ~get_reduction =
  let scalar_reductions = plan.Kernel_plan.loop.Mgacc_analysis.Loop_info.scalar_reductions in
  ignore (Sys.opaque_identity (Array.make 8 0) : int array);
  let frame = compiled.kc.Kernel_compile.make_frame () in
  List.iter
    (fun (name, slot, ty) ->
      match ty with
      | Ast.Tarray _ ->
          Frame.set_view frame slot
            (view_for plan ~gpu ~cost:frame.Frame.cost ~get_darray ~get_reduction name)
      | Ast.Tint when name = Tile2d.col_lo_param ->
          Frame.set_int frame slot (match col_bounds with Some b -> fst b.(gpu) | None -> min_int)
      | Ast.Tint when name = Tile2d.col_hi_param ->
          Frame.set_int frame slot (match col_bounds with Some b -> snd b.(gpu) | None -> max_int)
      | Ast.Tint | Ast.Tdouble -> (
          let red_op =
            List.find_map (fun (op, v) -> if v = name then Some op else None) scalar_reductions
          in
          match (red_op, ty) with
          | Some op, Ast.Tdouble -> Frame.set_float frame slot (View.redop_identity_f op)
          | Some op, Ast.Tint -> Frame.set_int frame slot (View.redop_identity_i op)
          | None, Ast.Tdouble -> (
              match get_scalar name with
              | Host_interp.Vfloat f -> Frame.set_float frame slot f
              | Host_interp.Vint n -> Frame.set_float frame slot (float_of_int n))
          | None, Ast.Tint -> (
              match get_scalar name with
              | Host_interp.Vint n -> Frame.set_int frame slot n
              | Host_interp.Vfloat f -> Frame.set_int frame slot (int_of_float f))
          | _, (Ast.Tvoid | Ast.Tarray _) -> assert false)
      | Ast.Tvoid -> assert false)
    compiled.kc.Kernel_compile.params;
  compiled.kc.Kernel_compile.prove frame ~lo:range.Task_map.start_ ~hi:range.Task_map.stop_;
  frame

let reserve s n =
  if Array.length s.frames < n then begin
    s.gpus <- Array.make n 0;
    s.frames <- Array.make n s.idle;
    s.faults <- Array.make n No_fault
  end

(* The runs of tasks [0, k], in GPU order, onto [acc]. *)
let rec runs_upto s k acc =
  if k < 0 then acc
  else
    let gpu = s.gpus.(k) in
    let run =
      { gpu; iterations = Task_map.length s.ranges.(gpu); cost = s.frames.(k).Frame.cost }
    in
    runs_upto s (k - 1) (run :: acc)

let rec partials_upto s slot ty k acc =
  if k < 0 then acc
  else
    let frame = s.frames.(k) in
    let v =
      match ty with
      | Ast.Tdouble -> Host_interp.Vfloat (Frame.get_float frame slot)
      | Ast.Tint -> Host_interp.Vint (Frame.get_int frame slot)
      | _ -> assert false
    in
    partials_upto s slot ty (k - 1) (v :: acc)

(* The lowest task's fault, every fault slot cleared. *)
let rec first_fault s tasks k found =
  if k >= tasks then found
  else begin
    let e = s.faults.(k) in
    s.faults.(k) <- No_fault;
    first_fault s tasks (k + 1) (if found == No_fault then e else found)
  end

(* Drop the launch's frames and ranges, so the slots keep no views alive. *)
let release s tasks =
  Array.fill s.frames 0 tasks s.idle;
  s.ranges <- [||]

let run_on_gpus ?col_bounds plan compiled ~pool ~ranges ~get_scalar ~get_darray ~get_reduction =
  let s = compiled.slots in
  let n = Array.length ranges in
  reserve s n;
  s.ranges <- ranges;
  (* Empty ranges launch nothing: no frame, no kernel record, no
     zero-length transfers. Scalar reductions stay correct because a
     missing partial folds as the identity. A binding fault ends the bind
     phase: no GPU from the faulting one on runs. *)
  let bound = ref 0 in
  let bind_fault =
    try
      for gpu = 0 to n - 1 do
        if Task_map.length ranges.(gpu) > 0 then begin
          s.frames.(!bound) <-
            bind_gpu ?col_bounds plan compiled ~gpu ~range:ranges.(gpu) ~get_scalar ~get_darray
              ~get_reduction;
          s.gpus.(!bound) <- gpu;
          incr bound
        end
      done;
      No_fault
    with e -> e
  in
  let tasks = !bound in
  if tasks >= 2 then Pool.run (Lazy.force pool) tasks compiled.task
  else if tasks = 1 then compiled.task 0;
  let fault = first_fault s tasks 0 No_fault in
  if fault != No_fault || bind_fault != No_fault then begin
    release s tasks;
    raise (if fault != No_fault then fault else bind_fault)
  end;
  (* The frame's counter started at zero: it holds this GPU's cost. *)
  let runs = runs_upto s (tasks - 1) [] in
  let scalar_partials =
    List.map
      (fun (op, name) ->
        let slot_ty =
          List.find_map
            (fun (n, slot, ty) -> if n = name then Some (slot, ty) else None)
            compiled.kc.Kernel_compile.params
        in
        match slot_ty with
        | None -> (name, op, [])
        | Some (slot, ty) -> (name, op, partials_upto s slot ty (tasks - 1) []))
      plan.Kernel_plan.loop.Mgacc_analysis.Loop_info.scalar_reductions
  in
  release s tasks;
  (runs, scalar_partials)
