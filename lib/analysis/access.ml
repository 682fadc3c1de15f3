open Mgacc_minic
open Ast

type index_class = Affine of Affine.t | Dynamic

type array_access = {
  array : string;
  reads : expr list;
  writes : expr list;
  reduction_writes : expr list;
}

let written_vars stmts =
  let acc = ref [] in
  let add v = if not (List.mem v !acc) then acc := v :: !acc in
  let lv = function Lvar v -> add v | Lindex _ -> () in
  let rec stmt s =
    match s.sdesc with
    | Sdecl (_, v, _) -> add v
    | Sarray_decl (_, v, _) -> add v
    | Sassign (l, _, _) -> lv l
    | Sincr (l, _) -> lv l
    | Sexpr _ | Sreturn _ | Sbreak | Scontinue -> ()
    | Sif (_, a, b) ->
        List.iter stmt a;
        List.iter stmt b
    | Swhile (_, b) | Sblock b -> List.iter stmt b
    | Sfor (hdr, b) ->
        Option.iter stmt hdr.for_init;
        Option.iter stmt hdr.for_update;
        List.iter stmt b
    | Spragma (_, inner) -> stmt inner
  in
  List.iter stmt stmts;
  !acc

(* Variables written or declared anywhere in the body are thread-private
   (OpenACC scalars default to firstprivate/private in parallel loops). *)
let private_vars (loop : Loop_info.t) = written_vars loop.body

let is_uniform_in loop =
  let privates = private_vars loop in
  fun v -> v <> loop.loop_var && not (List.mem v privates)

let classify_index loop idx =
  let is_uniform = is_uniform_in loop in
  match Affine.of_expr ~loop_var:loop.loop_var ~is_uniform idx with
  | Some a -> Affine a
  | None -> Dynamic

type collector = { mutable entries : (string * array_access) list }

let record c kind name idx =
  let e =
    match List.assoc_opt name c.entries with
    | Some e -> e
    | None -> { array = name; reads = []; writes = []; reduction_writes = [] }
  in
  let e' =
    match kind with
    | `Read -> { e with reads = idx :: e.reads }
    | `Write -> { e with writes = idx :: e.writes }
    | `Reduction -> { e with reduction_writes = idx :: e.reduction_writes }
  in
  c.entries <- (name, e') :: List.remove_assoc name c.entries

let analyze (loop : Loop_info.t) =
  let c = { entries = [] } in
  let rec expr e =
    match e.edesc with
    | Index (a, i) ->
        record c `Read a i;
        expr i
    | Int_lit _ | Float_lit _ | Var _ | Length _ -> ()
    | Unop (_, x) -> expr x
    | Binop (_, x, y) ->
        expr x;
        expr y
    | Ternary (cond, a, b) ->
        expr cond;
        expr a;
        expr b
    | Call (_, args) -> List.iter expr args
  in
  let assign ~reduction lvl op rhs =
    (match lvl with
    | Lvar _ -> ()
    | Lindex (a, i) ->
        if reduction then record c `Reduction a i
        else begin
          record c `Write a i;
          (* Compound assignment also reads the destination. *)
          if op <> Set then record c `Read a i
        end;
        expr i);
    expr rhs
  in
  let rec stmt ~reduction s =
    match s.sdesc with
    | Sassign (l, op, rhs) -> assign ~reduction l op rhs
    | Sincr (l, _) -> assign ~reduction l Add_set { edesc = Int_lit 1; eloc = s.sloc }
    | Sdecl (_, _, init) -> Option.iter expr init
    | Sarray_decl (_, _, len) -> expr len
    | Sexpr e -> expr e
    | Sreturn e -> Option.iter expr e
    | Sbreak | Scontinue -> ()
    | Sif (cond, a, b) ->
        expr cond;
        List.iter (stmt ~reduction) a;
        List.iter (stmt ~reduction) b
    | Swhile (cond, b) ->
        expr cond;
        List.iter (stmt ~reduction) b
    | Sfor (hdr, b) ->
        Option.iter (stmt ~reduction) hdr.for_init;
        Option.iter expr hdr.for_cond;
        Option.iter (stmt ~reduction) hdr.for_update;
        List.iter (stmt ~reduction) b
    | Sblock b -> List.iter (stmt ~reduction) b
    | Spragma (Dreduction_to_array _, inner) -> stmt ~reduction:true inner
    | Spragma (_, inner) -> stmt ~reduction inner
  in
  List.iter (stmt ~reduction:false) loop.body;
  List.map snd c.entries |> List.sort (fun a b -> compare a.array b.array)

let find accesses name = List.find_opt (fun a -> a.array = name) accesses

let read_only a = a.writes = [] && a.reduction_writes = [] && a.reads <> []
