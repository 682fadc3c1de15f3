open Mgacc_minic
open Ast

type t = {
  loop_id : int;
  loop_var : string;
  lower : expr;
  upper : expr;
  body : stmt list;
  clauses : clause list;
  localaccess : localaccess_spec list;
  scalar_reductions : (redop * string) list;
  array_reductions : (redop * string) list;
  loop_loc : Loc.t;
}

(* Normalize a for-header to (var, lower, upper_exclusive). *)
let normalize_header loc (hdr : for_header) =
  let var, lower =
    match hdr.for_init with
    | Some { sdesc = Sassign (Lvar v, Set, e); _ } -> (v, e)
    | Some { sdesc = Sdecl (Tint, v, Some e); _ } -> (v, e)
    | _ -> Loc.error loc "parallel loop must initialize its counter (i = e or int i = e)"
  in
  let upper =
    match hdr.for_cond with
    | Some { edesc = Binop (Lt, { edesc = Var v; _ }, e); _ } when v = var -> e
    | Some ({ edesc = Binop (Le, { edesc = Var v; _ }, e); _ } as cond) when v = var ->
        { edesc = Binop (Add, e, { edesc = Int_lit 1; eloc = cond.eloc }); eloc = cond.eloc }
    | _ -> Loc.error loc "parallel loop condition must be %s < e or %s <= e" var var
  in
  (match hdr.for_update with
  | Some { sdesc = Sincr (Lvar v, 1); _ } when v = var -> ()
  | Some { sdesc = Sassign (Lvar v, Add_set, { edesc = Int_lit 1; _ }); _ } when v = var -> ()
  | Some
      {
        sdesc =
          Sassign (Lvar v, Set, { edesc = Binop (Add, { edesc = Var v'; _ }, { edesc = Int_lit 1; _ }); _ });
        _;
      }
    when v = var && v' = var ->
      ()
  | _ -> Loc.error loc "parallel loop must increment %s by 1" var);
  (var, lower, upper)

let rec collect_array_reductions stmts acc =
  List.fold_left
    (fun acc s ->
      match s.sdesc with
      | Spragma (Dreduction_to_array { rta_op; rta_array }, inner) ->
          collect_array_reductions [ inner ] ((rta_op, rta_array) :: acc)
      | Spragma (_, inner) -> collect_array_reductions [ inner ] acc
      | Sif (_, a, b) -> collect_array_reductions b (collect_array_reductions a acc)
      | Swhile (_, b) | Sfor (_, b) | Sblock b -> collect_array_reductions b acc
      | Sdecl _ | Sarray_decl _ | Sassign _ | Sincr _ | Sexpr _ | Sreturn _ | Sbreak | Scontinue ->
          acc)
    acc stmts

(* A reduction destination is only ever reduced into, and with one
   operator, in source order: the first [reductiontoarray] for an array
   fixes its operator. *)
let check_array_reductions t =
  let ops = Hashtbl.create 4 in
  let destination a = List.exists (fun (_, d) -> d = a) t.array_reductions in
  let rec stmt s =
    match s.sdesc with
    | Spragma (Dreduction_to_array { rta_op; rta_array }, inner) -> (
        (match Hashtbl.find_opt ops rta_array with
        | Some op when op <> rta_op ->
            Loc.error s.sloc "reductiontoarray: %s is reduced with both %s and %s" rta_array
              (redop_to_string op) (redop_to_string rta_op)
        | Some _ -> ()
        | None -> Hashtbl.add ops rta_array rta_op);
        match inner.sdesc with
        | (Sassign (Lindex (a, _), _, _) | Sincr (Lindex (a, _), _)) when a = rta_array -> ()
        | _ -> stmt inner)
    | Sassign (Lindex (a, _), _, _) | Sincr (Lindex (a, _), _) ->
        if destination a then
          Loc.error s.sloc "plain write to %s, a reductiontoarray destination of this loop" a
    | Spragma (_, inner) -> stmt inner
    | Sif (_, a, b) ->
        List.iter stmt a;
        List.iter stmt b
    | Swhile (_, b) | Sblock b -> List.iter stmt b
    | Sfor (hdr, b) ->
        Option.iter stmt hdr.for_init;
        Option.iter stmt hdr.for_update;
        List.iter stmt b
    | Sdecl _ | Sarray_decl _ | Sassign (Lvar _, _, _) | Sincr (Lvar _, _) | Sexpr _ | Sreturn _
    | Sbreak | Scontinue ->
        ()
  in
  List.iter stmt t.body

(* Walk down a pragma stack, accumulating directives, until the statement. *)
let rec peel_pragmas s acc =
  match s.sdesc with Spragma (d, inner) -> peel_pragmas inner ((d, s.sloc) :: acc) | _ -> (s, acc)

let of_stmt ~loop_id s =
  match s.sdesc with
  | Spragma _ -> (
      let inner, directives = peel_pragmas s [] in
      let parallel = List.exists (function Dparallel_loop _, _ -> true | _ -> false) directives in
      match (parallel, inner.sdesc) with
      | true, Sfor (hdr, body) ->
          let loc = inner.sloc in
          let loop_var, lower, upper = normalize_header loc hdr in
          let clauses = List.concat_map (function Dparallel_loop cs, _ -> cs | _ -> []) directives in
          let la_standalone =
            List.concat_map (function Dlocalaccess specs, _ -> specs | _ -> []) directives
          in
          let la_clauses = List.concat_map (function Clocalaccess specs -> specs | _ -> []) clauses in
          let scalar_reductions =
            List.concat_map
              (function Creduction (op, vars) -> List.map (fun v -> (op, v)) vars | _ -> [])
              clauses
          in
          let array_reductions = List.sort_uniq compare (collect_array_reductions body []) in
          Some
            {
              loop_id;
              loop_var;
              lower;
              upper;
              body;
              clauses;
              localaccess = la_standalone @ la_clauses;
              scalar_reductions;
              array_reductions;
              loop_loc = loc;
            }
      | true, _ -> Loc.error inner.sloc "parallel loop directive must annotate a for loop"
      | false, _ -> None)
  | _ -> None

let extract (f : func) =
  let loops = ref [] in
  let next_id = ref 0 in
  let rec walk s =
    match s.sdesc with
    | Spragma (_, inner) -> (
        match of_stmt ~loop_id:!next_id s with
        | Some loop ->
            loops := loop :: !loops;
            incr next_id
            (* Parallel loops do not nest in this system: inner loops are
               sequential per thread, so do not recurse into the body. *)
        | None -> walk inner)
    | Sif (_, a, b) ->
        List.iter walk a;
        List.iter walk b
    | Swhile (_, b) | Sblock b -> List.iter walk b
    | Sfor (_, b) -> List.iter walk b
    | Sdecl _ | Sarray_decl _ | Sassign _ | Sincr _ | Sexpr _ | Sreturn _ | Sbreak | Scontinue ->
        ()
  in
  List.iter walk f.fbody;
  List.rev !loops

let localaccess_for t name = List.find_opt (fun s -> s.la_array = name) t.localaccess

let find_inner_parallel t =
  let rec in_stmts = function
    | [] -> None
    | s :: rest -> ( match in_stmt s with Some r -> Some r | None -> in_stmts rest)
  and in_stmt s =
    match s.sdesc with
    | Spragma _ -> (
        match of_stmt ~loop_id:(-1) s with
        | Some inner ->
            let width =
              List.fold_left
                (fun acc c -> match c with Cvector (Some n) when n > 0 -> n | _ -> acc)
                32 inner.clauses
            in
            Some (inner, width)
        | None -> ( match s.sdesc with Spragma (_, body) -> in_stmt body | _ -> None))
    | Sif (_, a, b) -> ( match in_stmts a with Some r -> Some r | None -> in_stmts b)
    | Swhile (_, b) | Sblock b | Sfor (_, b) -> in_stmts b
    | Sdecl _ | Sarray_decl _ | Sassign _ | Sincr _ | Sexpr _ | Sreturn _ | Sbreak | Scontinue ->
        None
  in
  in_stmts t.body

let arrays_mentioned t =
  let acc = ref [] in
  let add a = if not (List.mem a !acc) then acc := a :: !acc in
  let rec expr e =
    match e.edesc with
    | Index (a, i) ->
        add a;
        expr i
    | Length a -> add a
    | Int_lit _ | Float_lit _ | Var _ -> ()
    | Unop (_, x) -> expr x
    | Binop (_, x, y) ->
        expr x;
        expr y
    | Ternary (c, a, b) ->
        expr c;
        expr a;
        expr b
    | Call (_, args) -> List.iter expr args
  in
  let rec stmt s =
    match s.sdesc with
    | Sdecl (_, _, init) -> Option.iter expr init
    | Sarray_decl (_, _, len) -> expr len
    | Sassign (lv, _, e) ->
        (match lv with
        | Lvar _ -> ()
        | Lindex (a, i) ->
            add a;
            expr i);
        expr e
    | Sincr (lv, _) -> (
        match lv with
        | Lvar _ -> ()
        | Lindex (a, i) ->
            add a;
            expr i)
    | Sexpr e -> expr e
    | Sif (c, a, b) ->
        expr c;
        List.iter stmt a;
        List.iter stmt b
    | Swhile (c, b) ->
        expr c;
        List.iter stmt b
    | Sfor (hdr, b) ->
        Option.iter stmt hdr.for_init;
        Option.iter expr hdr.for_cond;
        Option.iter stmt hdr.for_update;
        List.iter stmt b
    | Sreturn e -> Option.iter expr e
    | Sbreak | Scontinue -> ()
    | Sblock b -> List.iter stmt b
    | Spragma (_, inner) -> stmt inner
  in
  List.iter stmt t.body;
  List.sort compare !acc

let free_vars t =
  let used = ref [] and declared = ref [] in
  let use v = if not (List.mem v !used) then used := v :: !used in
  let decl v = if not (List.mem v !declared) then declared := v :: !declared in
  let rec expr e =
    match e.edesc with
    | Var v -> use v
    | Length a -> use a
    | Index (a, i) ->
        use a;
        expr i
    | Int_lit _ | Float_lit _ -> ()
    | Unop (_, x) -> expr x
    | Binop (_, x, y) ->
        expr x;
        expr y
    | Ternary (c, a, b) ->
        expr c;
        expr a;
        expr b
    | Call (_, args) -> List.iter expr args
  in
  let lv = function
    | Lvar v -> use v
    | Lindex (a, i) ->
        use a;
        expr i
  in
  let rec stmt s =
    match s.sdesc with
    | Sdecl (_, v, init) ->
        Option.iter expr init;
        decl v
    | Sarray_decl (_, v, len) ->
        expr len;
        decl v
    | Sassign (l, _, e) ->
        lv l;
        expr e
    | Sincr (l, _) -> lv l
    | Sexpr e -> expr e
    | Sif (c, a, b) ->
        expr c;
        List.iter stmt a;
        List.iter stmt b
    | Swhile (c, b) ->
        expr c;
        List.iter stmt b
    | Sfor (hdr, b) ->
        Option.iter stmt hdr.for_init;
        Option.iter expr hdr.for_cond;
        Option.iter stmt hdr.for_update;
        List.iter stmt b
    | Sreturn e -> Option.iter expr e
    | Sbreak | Scontinue -> ()
    | Sblock b -> List.iter stmt b
    | Spragma (_, inner) -> stmt inner
  in
  List.iter stmt t.body;
  List.filter (fun v -> v <> t.loop_var && not (List.mem v !declared)) !used
  |> List.sort_uniq compare
