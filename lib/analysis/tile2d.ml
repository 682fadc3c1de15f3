open Mgacc_minic

type halo = { row_l : int; row_r : int; col_l : int; col_r : int }

type t = {
  inner_var : string;
  stride : Ast.expr;
  halos : (string * halo) list;
}

let col_lo_param = "__col_lo"
let col_hi_param = "__col_hi"

let stride_key e = Pretty.expr_to_string e

(* Decompose one subscript of a row-major 2-D array against the outer
   (row) and inner (column) loop variables. The parser desugars
   [u[re][ce]] into [u[re * stride + ce]], so eligible subscripts have
   exactly one loop-uniform product term [rowe * stride] (in either
   operand order) once classified against the inner variable, with the
   inner variable's coefficient 1. The row expression must itself be
   [outer_var + dr] for a literal [dr]. Returns [(dr, dc)]. *)
let decompose ~outer ~inner ~stride idx =
  match Access.classify_index inner idx with
  | Access.Dynamic -> None
  | Access.Affine a -> (
      if a.Affine.coeff <> 1 then None
      else
        match a.Affine.terms with
        | [ { Ast.edesc = Ast.Binop (Ast.Mul, x, y); _ } ] -> (
            let rowe =
              if stride_key y = stride_key stride then Some x
              else if stride_key x = stride_key stride then Some y
              else None
            in
            match rowe with
            | None -> None
            | Some rowe -> (
                match
                  Affine.of_expr ~loop_var:outer.Loop_info.loop_var
                    ~is_uniform:(Access.is_uniform_in outer) rowe
                with
                | Some r when r.Affine.coeff = 1 && Affine.is_literal r ->
                    Some (r.Affine.const, a.Affine.const)
                | _ -> None))
        | _ -> None)

let analyze (loop : Loop_info.t) ~(configs : Array_config.t list) =
  match Loop_info.find_inner_parallel loop with
  | None -> None
  | Some (inner, _) -> (
      let dist =
        List.filter (fun c -> c.Array_config.placement = Array_config.Distributed) configs
      in
      match List.filter_map (fun c -> c.Array_config.localaccess) dist with
      | [] -> None
      | specs when List.length specs <> List.length dist -> None
      | first :: rest ->
          let stride = first.Ast.la_stride in
          if
            not
              (List.for_all (fun s -> stride_key s.Ast.la_stride = stride_key stride) rest)
          then None
          else begin
            let accesses = Access.analyze loop in
            let halo_for (c : Array_config.t) =
              let name = c.Array_config.array in
              match Access.find accesses name with
              | None -> Some (name, { row_l = 0; row_r = 0; col_l = 0; col_r = 0 })
              | Some a -> (
                  if a.Access.reduction_writes <> [] then None
                  else
                    try
                      let h =
                        List.fold_left
                          (fun h idx ->
                            match decompose ~outer:loop ~inner ~stride idx with
                            | Some (dr, dc) ->
                                {
                                  row_l = max h.row_l (max 0 (-dr));
                                  row_r = max h.row_r (max 0 dr);
                                  col_l = max h.col_l (max 0 (-dc));
                                  col_r = max h.col_r (max 0 dc);
                                }
                            | None -> raise Exit)
                          { row_l = 0; row_r = 0; col_l = 0; col_r = 0 }
                          a.Access.reads
                      in
                      List.iter
                        (fun idx ->
                          (* Writes must land exactly on the iteration's
                             own (row, column) cell, so restricting the
                             column loop keeps every write in its tile. *)
                          match decompose ~outer:loop ~inner ~stride idx with
                          | Some (0, 0) -> ()
                          | _ -> raise Exit)
                        a.Access.writes;
                      Some (name, h)
                    with Exit -> None)
            in
            let rec all = function
              | [] -> Some []
              | c :: cs -> (
                  match (halo_for c, all cs) with
                  | Some h, Some hs -> Some (h :: hs)
                  | _ -> None)
            in
            match all dist with
            | Some halos -> Some { inner_var = inner.Loop_info.loop_var; stride; halos }
            | None -> None
          end)

let halo_of t name =
  match List.assoc_opt name t.halos with
  | Some h -> h
  | None -> { row_l = 0; row_r = 0; col_l = 0; col_r = 0 }

(* Rewrite the loop body so the inner column loop runs only
   [[__col_lo, __col_hi)]: the init clamps up with the int [max] builtin
   and the condition gains an upper-bound conjunct. Bound as ordinary int
   kernel parameters, per-GPU values select each device's column block;
   sentinel bounds (min_int, max_int) make the kernel behave exactly like
   the unrestricted one when the runtime falls back to 1-D. *)
let restrict_columns (loop : Loop_info.t) ~inner_var =
  let mk loc d : Ast.expr = { Ast.edesc = d; Ast.eloc = loc } in
  let clamp e =
    mk e.Ast.eloc (Ast.Call ("max", [ e; mk e.Ast.eloc (Ast.Var col_lo_param) ]))
  in
  let clamp_init (s : Ast.stmt) =
    match s.Ast.sdesc with
    | Ast.Sassign (Ast.Lvar v, Ast.Set, e) when v = inner_var ->
        { s with Ast.sdesc = Ast.Sassign (Ast.Lvar v, Ast.Set, clamp e) }
    | Ast.Sdecl (ty, v, Some e) when v = inner_var ->
        { s with Ast.sdesc = Ast.Sdecl (ty, v, Some (clamp e)) }
    | _ -> s
  in
  let conj_cond loc cond =
    Option.map
      (fun c ->
        mk loc
          (Ast.Binop
             ( Ast.Land,
               c,
               mk loc
                 (Ast.Binop (Ast.Lt, mk loc (Ast.Var inner_var), mk loc (Ast.Var col_hi_param)))
             )))
      cond
  in
  let loop_var_of (hdr : Ast.for_header) =
    match hdr.Ast.for_init with
    | Some { Ast.sdesc = Ast.Sassign (Ast.Lvar v, _, _); _ } -> Some v
    | Some { Ast.sdesc = Ast.Sdecl (_, v, _); _ } -> Some v
    | _ -> None
  in
  let rec stmt s =
    match s.Ast.sdesc with
    | Ast.Sfor (hdr, body) when loop_var_of hdr = Some inner_var ->
        let hdr' =
          {
            hdr with
            Ast.for_init = Option.map clamp_init hdr.Ast.for_init;
            Ast.for_cond = conj_cond s.Ast.sloc hdr.Ast.for_cond;
          }
        in
        { s with Ast.sdesc = Ast.Sfor (hdr', List.map stmt body) }
    | Ast.Sfor (hdr, body) -> { s with Ast.sdesc = Ast.Sfor (hdr, List.map stmt body) }
    | Ast.Sif (c, a, b) -> { s with Ast.sdesc = Ast.Sif (c, List.map stmt a, List.map stmt b) }
    | Ast.Swhile (c, b) -> { s with Ast.sdesc = Ast.Swhile (c, List.map stmt b) }
    | Ast.Sblock b -> { s with Ast.sdesc = Ast.Sblock (List.map stmt b) }
    | Ast.Spragma (d, inner) -> { s with Ast.sdesc = Ast.Spragma (d, stmt inner) }
    | Ast.Sdecl _ | Ast.Sarray_decl _ | Ast.Sassign _ | Ast.Sincr _ | Ast.Sexpr _
    | Ast.Sreturn _ | Ast.Sbreak | Ast.Scontinue ->
        s
  in
  { loop with Loop_info.body = List.map stmt loop.Loop_info.body }

(* The column split of [[0, stride)] for a GPU grid with [pc] column
   blocks; shared by the runtime (darray tiles, kernel column bounds) so
   both always agree on tile boundaries. *)
let grid_of ~num_gpus =
  let rec best d = if d < 2 then 1 else if num_gpus mod d = 0 then d else best (d - 1) in
  let pc = best (int_of_float (sqrt (float_of_int num_gpus))) in
  (num_gpus / pc, pc)
