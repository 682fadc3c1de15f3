open Mgacc_minic

type window = Kernel_plan.window =
  | Whole_array
  | Affine_window of { coeff : int; cmin : int; cmax : int }

type lookahead = No_future_read | Reads_next of { loop_loc : Loc.t; window : window }

type t = {
  program : Ast.program;
  options : Kernel_plan.options;
  plans : (Loc.t, Kernel_plan.t) Hashtbl.t;
  order : Kernel_plan.t list;
  fused : (Loc.t, int list) Hashtbl.t;  (** surviving loop -> original ids *)
  contracted : string list;
  order_arr : Kernel_plan.t array;
  loc_index : (Loc.t, int) Hashtbl.t;
  next_memo : (Loc.t * string, lookahead) Hashtbl.t;
}

let build ?(options = Kernel_plan.default_options) program =
  Typecheck.check_program program;
  let program, summary =
    if options.Kernel_plan.enable_fusion then begin
      let program, summary = Fusion.apply program in
      (* The pass is a rewrite: re-typecheck its output so a fusion bug
         surfaces as a located error here, not as a runtime crash. *)
      Typecheck.check_program program;
      (program, summary)
    end
    else (program, Fusion.empty_summary)
  in
  let plans = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun f ->
      List.iter
        (fun loop ->
          let plan = Kernel_plan.of_loop ~options loop in
          Hashtbl.replace plans loop.Mgacc_analysis.Loop_info.loop_loc plan;
          order := plan :: !order)
        (Mgacc_analysis.Loop_info.extract f))
    program.Ast.funcs;
  let order = List.rev !order in
  let fused = Hashtbl.create 8 in
  List.iter (fun (loc, ids) -> Hashtbl.replace fused loc ids) summary.Fusion.groups;
  let order_arr = Array.of_list order in
  let loc_index = Hashtbl.create 16 in
  Array.iteri
    (fun i p ->
      Hashtbl.replace loc_index p.Kernel_plan.loop.Mgacc_analysis.Loop_info.loop_loc i)
    order_arr;
  {
    program;
    options;
    plans;
    order;
    fused;
    contracted = summary.Fusion.contracted;
    order_arr;
    loc_index;
    next_memo = Hashtbl.create 32;
  }

let program t = t.program
(* ---------------- fused-group structure ---------------- *)

let fused_members t (loop : Mgacc_analysis.Loop_info.t) =
  match Hashtbl.find_opt t.fused loop.Mgacc_analysis.Loop_info.loop_loc with
  | Some ids -> ids
  | None -> [ loop.Mgacc_analysis.Loop_info.loop_id ]

(* With fusion off the table is empty and this is byte-identical to the
   historical [Printf.sprintf "loop%d" loop_id] label. Fused kernels
   carry every constituent source loop id ("loop0+1"), which is how
   spans, traces, and --blame keep attributing time to source loops. *)
let kernel_label t (loop : Mgacc_analysis.Loop_info.t) =
  match Hashtbl.find_opt t.fused loop.Mgacc_analysis.Loop_info.loop_loc with
  | Some (_ :: _ :: _ as ids) ->
      Printf.sprintf "loop%s" (String.concat "+" (List.map string_of_int ids))
  | Some [ id ] -> Printf.sprintf "loop%d" id
  | Some [] | None -> Printf.sprintf "loop%d" loop.Mgacc_analysis.Loop_info.loop_id

let contracted_arrays t = t.contracted

let plan_for t (loop : Mgacc_analysis.Loop_info.t) =
  match Hashtbl.find_opt t.plans loop.Mgacc_analysis.Loop_info.loop_loc with
  | Some plan -> plan
  | None ->
      let plan = Kernel_plan.of_loop ~options:t.options loop in
      Hashtbl.replace t.plans loop.Mgacc_analysis.Loop_info.loop_loc plan;
      plan

let all_plans t = t.order
let loop_count t = List.length t.order

(* ---------------- consumer lookahead (lazy coherence) ---------------- *)

module Access = Mgacc_analysis.Access
module Affine = Mgacc_analysis.Affine
module Loop_info = Mgacc_analysis.Loop_info

(* Plain reads of [acc]'s array minus the reduction self-reads: the
   Set-form reduction statement [a[c] = a[c] + x] records a read of
   [a[c]] that the generated kernel never performs (it accumulates into
   per-GPU partials, see Kernel_compile), so a subscript that matches a
   reduction-write subscript textually cancels one such read. *)
let real_reads (acc : Access.array_access) =
  match acc.Access.reduction_writes with
  | [] -> acc.Access.reads
  | rws ->
      let counts = Hashtbl.create 4 in
      List.iter
        (fun e ->
          let k = Pretty.expr_to_string e in
          Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
        rws;
      List.filter
        (fun e ->
          let k = Pretty.expr_to_string e in
          match Hashtbl.find_opt counts k with
          | Some n when n > 0 ->
              Hashtbl.replace counts k (n - 1);
              false
          | _ -> true)
        acc.Access.reads

(* Summarize a reader plan's subscripts into a per-GPU window shape:
   every read must be a literal affine form [coeff*i + const] with one
   shared coefficient, else the whole array is assumed read. *)
let summarize_reads (p : Kernel_plan.t) reads =
  let loop = p.Kernel_plan.loop in
  let is_uniform = Access.is_uniform_in loop in
  let literal e =
    match Affine.of_expr ~loop_var:loop.Loop_info.loop_var ~is_uniform e with
    | Some a when Affine.is_literal a -> Some a
    | _ -> None
  in
  let forms = List.map literal reads in
  if List.exists Option.is_none forms then Whole_array
  else
    match List.filter_map Fun.id forms with
    | [] -> Whole_array
    | f0 :: rest ->
        if List.exists (fun (f : Affine.t) -> f.Affine.coeff <> f0.Affine.coeff) rest then
          Whole_array
        else
          let consts = List.map (fun (f : Affine.t) -> f.Affine.const) (f0 :: rest) in
          Affine_window
            {
              coeff = f0.Affine.coeff;
              cmin = List.fold_left min f0.Affine.const consts;
              cmax = List.fold_left max f0.Affine.const consts;
            }

(* What the given plan itself reads of [array], as a window — the data
   loader uses this to pull only the current launch's inputs valid. *)
let read_window_of_uncached (p : Kernel_plan.t) ~array =
  match Access.find p.Kernel_plan.accesses array with
  | None -> None
  | Some acc -> (
      match real_reads acc with [] -> None | reads -> Some (summarize_reads p reads))

(* The summary is a pure function of the (immutable) plan, queried by
   the data loader on every launch of every loop: memoize it per plan. *)
let read_window_of (p : Kernel_plan.t) ~array =
  match Hashtbl.find_opt p.Kernel_plan.window_memo array with
  | Some w -> w
  | None ->
      let w = read_window_of_uncached p ~array in
      Hashtbl.replace p.Kernel_plan.window_memo array w;
      w

(* The next plan (in cyclic source order after [after], the current plan
   itself scanned last — iterative applications re-run their loops) that
   performs real device reads of [array], summarized as a window. Reads
   under a distributed placement fall back to [Whole_array]: validity
   intervals only govern replicas, and the transition flushes through
   the host anyway. *)
let next_read_uncached t ~(after : Loc.t) ~array =
  let order = t.order_arr in
  let n = Array.length order in
  let cur = match Hashtbl.find_opt t.loc_index after with Some i -> i | None -> -1 in
  let candidate p =
    match Access.find p.Kernel_plan.accesses array with
    | None -> None
    | Some acc -> (
        match real_reads acc with
        | [] -> None
        | reads ->
            let window =
              match Kernel_plan.placement_of p array with
              | Mgacc_analysis.Array_config.Distributed -> Whole_array
              | Mgacc_analysis.Array_config.Replicated -> summarize_reads p reads
            in
            Some (Reads_next { loop_loc = p.Kernel_plan.loop.Loop_info.loop_loc; window }))
  in
  if n = 0 then No_future_read
  else if cur < 0 then
    (* Unknown current loop (planned outside [build]): any reader counts. *)
    match List.find_map candidate t.order with
    | Some l -> l
    | None -> No_future_read
  else begin
    let found = ref None in
    let k = ref 1 in
    while !found = None && !k <= n do
      let p = order.((cur + !k) mod n) in
      found := candidate p;
      incr k
    done;
    match !found with Some l -> l | None -> No_future_read
  end

(* The scan result depends only on the (immutable) plan order, so each
   (current loop, array) pair is resolved once per program plan instead
   of re-walking the launch list on every reconciliation. *)
let next_read t ~(after : Loc.t) ~array =
  match Hashtbl.find_opt t.next_memo (after, array) with
  | Some l -> l
  | None ->
      let l = next_read_uncached t ~after ~array in
      Hashtbl.replace t.next_memo (after, array) l;
      l
