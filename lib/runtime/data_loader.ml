open Mgacc_minic
module Kernel_plan = Mgacc_translator.Kernel_plan
module Program_plan = Mgacc_translator.Program_plan
module Array_config = Mgacc_analysis.Array_config
module Interval = Mgacc_util.Interval

type prepared = {
  xfers : Darray.xfer list;
  reductions : (string * Reduction.t) list;
  reused : string list;
}

(* Lazy coherence: make exactly what this launch reads valid, pulling any
   stale interval inside the demand from a valid peer. Reduction
   destinations fold partials into replica 0's base values, so GPU 0 must
   be fully valid there; other replicated inputs pull only each GPU's own
   read window of the launch (resolved from the plan's affine read
   summary over the iteration split). Stale data outside the windows
   stays deferred — a later consumer, copyout or update pulls it then. *)
let pull_for_launch cfg plan ~(ranges : Task_map.range array) ~get_darray =
  if not (Rt_config.lazy_coherence cfg) then []
  else
    List.concat_map
      (fun (c : Array_config.t) ->
        let name = c.Array_config.array in
        let da = get_darray name in
        match c.Array_config.reduction with
        | Some _ -> Darray.pull_valid cfg da ~gpu:0 ~want:(Darray.full_set da)
        | None -> (
            match Kernel_plan.placement_of plan name with
            | Array_config.Distributed -> []
            | Array_config.Replicated -> (
                match Program_plan.read_window_of plan ~array:name with
                | None -> []
                | Some window ->
                    let want g =
                      match window with
                      | Program_plan.Whole_array -> Darray.full_set da
                      | Program_plan.Affine_window { coeff; cmin; cmax } ->
                          Interval.Set.of_interval
                            (Task_map.affine_window ranges.(g) ~coeff ~cmin ~cmax)
                    in
                    List.concat
                      (List.init (Array.length ranges) (fun g ->
                           Darray.pull_valid cfg da ~gpu:g ~want:(want g))))))
      plan.Kernel_plan.configs

let prepare cfg ?grid plan ~ranges ~eval_int ~get_darray ~arrays =
  let xfers = ref [] in
  let reductions = ref [] in
  let reused = ref [] in
  (* An array already on the device in the right placement produces no
     transfers: the reload-skip reuse iterative applications live on. Under
     overlap this is a prefetch hit — the previous launch's reconciliation,
     gated only on its own producers, already refreshed the copy while the
     host ran ahead to this launch. *)
  let note_reuse name (da : Darray.t) emitted =
    if emitted = [] && da.Darray.state <> Darray.Unallocated then reused := name :: !reused;
    emitted
  in
  List.iter
    (fun (c : Array_config.t) ->
      let name = c.Array_config.array in
      let da = get_darray name in
      match c.Array_config.reduction with
      | Some op ->
          (* Reduction destinations stay replicated; partials are private. *)
          xfers := !xfers @ note_reuse name da (Darray.ensure_replicated cfg da ~dirty_tracking:false);
          reductions := (name, Reduction.allocate cfg da op) :: !reductions
      | None -> (
          match Kernel_plan.placement_of plan name with
          | Array_config.Replicated ->
              let dirty_tracking =
                Kernel_plan.needs_dirty_tracking plan ~num_gpus:cfg.Rt_config.num_gpus name
              in
              xfers := !xfers @ note_reuse name da (Darray.ensure_replicated cfg da ~dirty_tracking)
          | Array_config.Distributed ->
              let spec =
                match c.Array_config.localaccess with
                | Some la ->
                    let stride = eval_int la.Ast.la_stride in
                    if stride <= 0 then
                      Loc.error la.Ast.la_stride.Ast.eloc
                        "localaccess stride for %s must be positive (got %d)" name stride;
                    let left = max 0 (eval_int la.Ast.la_left) in
                    let right = max 0 (eval_int la.Ast.la_right) in
                    (* Under a 2-D launch every distributed array carries
                       its tile grid and exact per-array stencil halos
                       (the launch gate already checked divisibility). *)
                    let tile =
                      match (grid, plan.Kernel_plan.tile2d) with
                      | Some (pr, pc), Some t2 when da.Darray.length mod stride = 0 ->
                          let h = Mgacc_analysis.Tile2d.halo_of t2 name in
                          Some
                            {
                              Darray.pr;
                              pc;
                              row_left = h.Mgacc_analysis.Tile2d.row_l;
                              row_right = h.Mgacc_analysis.Tile2d.row_r;
                              col_left = h.Mgacc_analysis.Tile2d.col_l;
                              col_right = h.Mgacc_analysis.Tile2d.col_r;
                            }
                      | _ -> None
                    in
                    { Darray.stride; left; right; tile }
                | None -> assert false (* Distributed implies a localaccess spec *)
              in
              xfers := !xfers @ note_reuse name da (Darray.ensure_distributed cfg da ~spec ~ranges)))
    plan.Kernel_plan.configs;
  (* Arrays referenced only through __length never appear in the access
     summaries, so they have no config; they still need device presence
     because a view is bound for every array parameter. *)
  List.iter
    (fun name ->
      if Kernel_plan.config_for plan name = None then
        xfers := !xfers @ Darray.ensure_replicated cfg (get_darray name) ~dirty_tracking:false)
    arrays;
  xfers := !xfers @ pull_for_launch cfg plan ~ranges ~get_darray;
  { xfers = !xfers; reductions = List.rev !reductions; reused = List.rev !reused }
