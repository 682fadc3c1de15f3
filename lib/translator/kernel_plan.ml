open Mgacc_analysis

type options = {
  enable_distribution : bool;
  enable_layout_transform : bool;
  enable_miss_check_elim : bool;
  enable_fusion : bool;
  enable_decomp2d : bool;
}

let default_options =
  {
    enable_distribution = true;
    enable_layout_transform = true;
    enable_miss_check_elim = true;
    enable_fusion = false;
    enable_decomp2d = false;
  }

(* Per-GPU read-window shape of a launch (lazy coherence lookahead). The
   type lives here so the per-plan window memo table can, but the
   summaries themselves are computed by [Program_plan]. *)
type window = Whole_array | Affine_window of { coeff : int; cmin : int; cmax : int }

type t = {
  loop : Loop_info.t;
  accesses : Access.array_access list;
  configs : Array_config.t list;
  free_vars : string list;
  options : options;
  inner_parallel : (Loop_info.t * int) option;
  tile2d : Tile2d.t option;
  window_memo : (string, window option) Hashtbl.t;
}

let of_loop ?(options = default_options) loop =
  Loop_info.check_array_reductions loop;
  let accesses = Access.analyze loop in
  let inner_parallel = Loop_info.find_inner_parallel loop in
  (* With an inner vector loop, adjacent threads differ in the *inner*
     index: coalescing is judged against it. *)
  let classify =
    match inner_parallel with
    | Some (inner, _) -> Coalesce.make inner
    | None -> Coalesce.make loop
  in
  let configs = Array_config.build ~classify loop accesses in
  let tile2d =
    if options.enable_decomp2d && options.enable_distribution then
      Tile2d.analyze loop ~configs
    else None
  in
  {
    loop;
    accesses;
    configs;
    free_vars = Loop_info.free_vars loop;
    options;
    inner_parallel;
    tile2d;
    window_memo = Hashtbl.create 4;
  }

let thread_multiplier t = match t.inner_parallel with Some (_, width) -> width | None -> 1

let config_for t name = Array_config.find t.configs name

let placement_of t name =
  if not t.options.enable_distribution then Array_config.Replicated
  else
    match config_for t name with
    | Some c -> c.Array_config.placement
    | None -> Array_config.Replicated

(* Fusion-mode data-layout transposition (paper §V). Beyond the baseline
   localaccess-gated transform, fusion mode transposes any replicated
   read-only array whose read sites are affine but strided — the pattern
   where the fastest-varying subscript is not the parallel index. The
   one-time repack costs ~16 bytes/element (read + write); each launch
   saves one memory transaction per strided site per element, so over a
   nominal launch count the rewrite pays whenever a strided site exists
   and no data-dependent (Random) site would defeat the transposition. *)
let relayout_amortize_launches = 8

let base_classifier t =
  match t.inner_parallel with Some (inner, _) -> Coalesce.make inner | None -> Coalesce.make t.loop

let fusion_relayout t name =
  t.options.enable_fusion && t.options.enable_layout_transform
  &&
  match (config_for t name, Access.find t.accesses name) with
  | Some c, Some acc ->
      (not c.Array_config.layout_transform)
      && c.Array_config.localaccess = None
      && Access.read_only acc
      && placement_of t name = Array_config.Replicated
      &&
      let modes = List.map (base_classifier t) acc.Access.reads in
      let strided =
        List.length (List.filter (function Coalesce.Strided _ -> true | _ -> false) modes)
      in
      let random = List.exists (function Coalesce.Random -> true | _ -> false) modes in
      strided >= 1 && (not random) && 8 * strided * relayout_amortize_launches >= 16
  | _ -> false

let relayout_arrays t =
  List.filter_map
    (fun c -> if fusion_relayout t c.Array_config.array then Some c.Array_config.array else None)
    t.configs

let layout_transformed t name =
  (t.options.enable_layout_transform
  && match config_for t name with Some c -> c.Array_config.layout_transform | None -> false)
  || fusion_relayout t name

let needs_miss_check t name =
  match placement_of t name with
  | Array_config.Replicated -> false
  | Array_config.Distributed -> (
      match config_for t name with
      | None -> false
      | Some c ->
          c.Array_config.written
          && not (t.options.enable_miss_check_elim && c.Array_config.writes_in_window))

let needs_dirty_tracking t ~num_gpus name =
  num_gpus > 1
  && placement_of t name = Array_config.Replicated
  && match config_for t name with Some c -> c.Array_config.written | None -> false

let classifier t =
  let base =
    match t.inner_parallel with
    | Some (inner, _) -> Coalesce.make inner
    | None -> Coalesce.make t.loop
  in
  fun array idx ->
    let mode = base idx in
    if layout_transformed t array then Coalesce.apply_layout_transform mode else mode

(* ------------------------------------------------------------------ *)
(* Static per-iteration cost and schedule hint for the scheduler.      *)
(* ------------------------------------------------------------------ *)

(* Per-iteration work varies when an inner loop's trip count depends on
   the parallel index (BFS runs [degree[i]] edge visits per node), or when
   an index-dependent branch decides whether an inner loop runs at all
   (BFS's frontier test skips the whole body off-frontier). Dynamic
   *subscripts* alone (MD's neighbor gathers) do not skew work: every
   iteration still runs the same fixed-trip loops, so a static throughput
   model remains valid for them. The taint analysis tells the two apart. *)
let schedule_hint t =
  let open Mgacc_minic.Ast in
  let taint = Mgacc_analysis.Taint.compute t.loop in
  let varies e = Mgacc_analysis.Taint.expr_tainted taint e in
  let rec contains_loop s =
    match s.sdesc with
    | Sfor _ | Swhile _ -> true
    | Sif (_, a, b) -> List.exists contains_loop a || List.exists contains_loop b
    | Sblock body -> List.exists contains_loop body
    | Spragma (_, inner) -> contains_loop inner
    | Sdecl _ | Sarray_decl _ | Sassign _ | Sincr _ | Sexpr _ | Sreturn _ | Sbreak | Scontinue ->
        false
  in
  let rec stmt_irregular s =
    match s.sdesc with
    | Sfor (h, body) ->
        (match h.for_cond with Some c -> varies c | None -> false)
        || List.exists stmt_irregular body
    | Swhile (c, body) -> varies c || List.exists stmt_irregular body
    | Sif (c, a, b) ->
        (varies c && (List.exists contains_loop a || List.exists contains_loop b))
        || List.exists stmt_irregular a
        || List.exists stmt_irregular b
    | Sblock body -> List.exists stmt_irregular body
    | Spragma (_, inner) -> stmt_irregular inner
    | Sdecl _ | Sarray_decl _ | Sassign _ | Sincr _ | Sexpr _ | Sreturn _ | Sbreak | Scontinue ->
        false
  in
  if List.exists stmt_irregular t.loop.Loop_info.body then `Irregular else `Uniform

let static_iter_cost t =
  let open Mgacc_minic.Ast in
  let cost = Mgacc_gpusim.Cost.zero () in
  let classify = classifier t in
  let charge array idx =
    (* Element width is 8 bytes for doubles; ints are narrower but the
       seeding model only needs relative magnitudes. *)
    match classify array idx with
    | Mgacc_analysis.Coalesce.Broadcast ->
        cost.Mgacc_gpusim.Cost.broadcast_bytes <- cost.Mgacc_gpusim.Cost.broadcast_bytes + 8
    | Mgacc_analysis.Coalesce.Coalesced ->
        cost.Mgacc_gpusim.Cost.coalesced_bytes <- cost.Mgacc_gpusim.Cost.coalesced_bytes + 8
    | Mgacc_analysis.Coalesce.Strided _ | Mgacc_analysis.Coalesce.Random ->
        cost.Mgacc_gpusim.Cost.random_accesses <- cost.Mgacc_gpusim.Cost.random_accesses + 1;
        cost.Mgacc_gpusim.Cost.random_bytes <- cost.Mgacc_gpusim.Cost.random_bytes + 8
  in
  let rec expr e =
    match e.edesc with
    | Int_lit _ | Float_lit _ | Var _ | Length _ -> ()
    | Index (a, idx) ->
        charge a idx;
        expr idx
    | Unop ((Neg : unop), x) ->
        cost.Mgacc_gpusim.Cost.flops <- cost.Mgacc_gpusim.Cost.flops + 1;
        expr x
    | Unop (_, x) ->
        cost.Mgacc_gpusim.Cost.int_ops <- cost.Mgacc_gpusim.Cost.int_ops + 1;
        expr x
    | Binop ((Add | Sub | Mul | Div | Mod), x, y) ->
        cost.Mgacc_gpusim.Cost.flops <- cost.Mgacc_gpusim.Cost.flops + 1;
        expr x;
        expr y
    | Binop (_, x, y) ->
        cost.Mgacc_gpusim.Cost.int_ops <- cost.Mgacc_gpusim.Cost.int_ops + 1;
        expr x;
        expr y
    | Ternary (c, a, b) ->
        cost.Mgacc_gpusim.Cost.int_ops <- cost.Mgacc_gpusim.Cost.int_ops + 1;
        expr c;
        expr a;
        expr b
    | Call (_, args) ->
        (* A builtin (sqrt, exp, ...) is several flops; 4 is the order the
           CPU/GPU models use for transcendentals. *)
        cost.Mgacc_gpusim.Cost.flops <- cost.Mgacc_gpusim.Cost.flops + 4;
        List.iter expr args
  in
  let lvalue = function Lvar _ -> () | Lindex (a, idx) -> charge a idx; expr idx in
  let rec stmt s =
    match s.sdesc with
    | Sdecl (_, _, init) -> Option.iter expr init
    | Sarray_decl (_, _, n) -> expr n
    | Sassign (lv, _, e) ->
        lvalue lv;
        expr e
    | Sincr (lv, _) ->
        cost.Mgacc_gpusim.Cost.int_ops <- cost.Mgacc_gpusim.Cost.int_ops + 1;
        lvalue lv
    | Sexpr e -> expr e
    | Sif (c, a, b) ->
        expr c;
        List.iter stmt a;
        List.iter stmt b
    | Swhile (c, body) ->
        expr c;
        List.iter stmt body
    | Sfor (h, body) ->
        Option.iter stmt h.for_init;
        Option.iter expr h.for_cond;
        Option.iter stmt h.for_update;
        List.iter stmt body
    | Sreturn e -> Option.iter expr e
    | Sbreak | Scontinue -> ()
    | Sblock body -> List.iter stmt body
    | Spragma (_, inner) -> stmt inner
  in
  List.iter stmt t.loop.Loop_info.body;
  cost

let pp ppf t =
  Format.fprintf ppf "@[<v>loop %d (var %s):@," t.loop.Loop_info.loop_id t.loop.Loop_info.loop_var;
  List.iter (fun c -> Format.fprintf ppf "  %a@," Array_config.pp c) t.configs;
  Format.fprintf ppf "@]"
