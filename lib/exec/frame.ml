open Mgacc_minic

type slot = Int_slot of int | Float_slot of int | View_slot of int

type t = {
  ints : int array;
  floats : float array;
  views : View.t array;
  cost : Mgacc_gpusim.Cost.t;
}

module Smap = Map.Make (String)

type scope = (slot * Ast.typ) Smap.t list

let rec lookup_in scope name =
  match scope with
  | [] -> None
  | names :: rest -> (
      match Smap.find_opt name names with Some v -> Some v | None -> lookup_in rest name)

module Layout = struct
  type t = {
    base_ints : int;
    base_floats : int;
    base_views : int;
    mutable n_ints : int;
    mutable n_floats : int;
    mutable n_views : int;
    mutable scopes : scope;
    mutable int_consts : (int * int) list;  (** (value, slot) *)
    mutable float_consts : (int64 * (int * float)) list;  (** keyed by bits: -0.0 <> 0.0 *)
  }

  let above scopes ~ints ~floats ~views =
    {
      base_ints = ints;
      base_floats = floats;
      base_views = views;
      n_ints = ints;
      n_floats = floats;
      n_views = views;
      scopes;
      int_consts = [];
      float_consts = [];
    }

  let create () = above [ Smap.empty ] ~ints:0 ~floats:0 ~views:0
  let enter_scope t = t.scopes <- Smap.empty :: t.scopes

  let leave_scope t =
    match t.scopes with
    | [] | [ _ ] -> invalid_arg "Frame.Layout.leave_scope: no scope to leave"
    | _ :: rest -> t.scopes <- rest

  let fresh t loc ty =
    match ty with
    | Ast.Tint ->
        t.n_ints <- t.n_ints + 1;
        Int_slot (t.n_ints - 1)
    | Ast.Tdouble ->
        t.n_floats <- t.n_floats + 1;
        Float_slot (t.n_floats - 1)
    | Ast.Tarray _ ->
        t.n_views <- t.n_views + 1;
        View_slot (t.n_views - 1)
    | Ast.Tvoid -> Loc.error loc "void slot"

  let check t loc name ty =
    match t.scopes with
    | [] -> assert false
    | names :: _ ->
        if Smap.mem name names then Loc.error loc "redeclaration of %s" name;
        if ty = Ast.Tvoid then Loc.error loc "void variable %s" name

  let add t name ty slot =
    match t.scopes with
    | [] -> assert false
    | names :: rest -> t.scopes <- Smap.add name (slot, ty) names :: rest

  let bind t loc name ty slot =
    check t loc name ty;
    add t name ty slot

  let declare t loc name ty =
    check t loc name ty;
    let slot = fresh t loc ty in
    add t name ty slot;
    slot

  let const_int t v =
    match List.assoc_opt v t.int_consts with
    | Some i -> i
    | None ->
        let i = t.n_ints in
        t.n_ints <- i + 1;
        t.int_consts <- (v, i) :: t.int_consts;
        i

  let const_float t v =
    let bits = Int64.bits_of_float v in
    match List.assoc_opt bits t.float_consts with
    | Some (i, _) -> i
    | None ->
        let i = t.n_floats in
        t.n_floats <- i + 1;
        t.float_consts <- (bits, (i, v)) :: t.float_consts;
        i

  let lookup t name = lookup_in t.scopes name
  let scope t = t.scopes
  let int_bank_size t = t.n_ints
  let float_bank_size t = t.n_floats
  let view_bank_size t = t.n_views
end

let fill_consts (l : Layout.t) fr =
  List.iter (fun (v, i) -> Array.unsafe_set fr.ints i v) l.Layout.int_consts;
  List.iter (fun (_, (i, v)) -> Array.unsafe_set fr.floats i v) l.Layout.float_consts

let create (layout : Layout.t) cost =
  let fr =
    {
      ints = Array.make (max 1 (Layout.int_bank_size layout)) 0;
      floats = Array.make (max 1 (Layout.float_bank_size layout)) 0.0;
      views = Array.make (max 1 (Layout.view_bank_size layout)) View.unbound;
      cost;
    }
  in
  fill_consts layout fr;
  fr

let layout_above scope fr =
  Layout.above scope ~ints:(Array.length fr.ints) ~floats:(Array.length fr.floats)
    ~views:(Array.length fr.views)

let extend fr (l : Layout.t) =
  let open Layout in
  if l.n_ints = l.base_ints && l.n_floats = l.base_floats && l.n_views = l.base_views then fr
  else
    let grow a n fill =
      let b = Array.make (max n (Array.length a)) fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    let fr' =
      {
        ints = grow fr.ints l.n_ints 0;
        floats = grow fr.floats l.n_floats 0.0;
        views = grow fr.views l.n_views View.unbound;
        cost = fr.cost;
      }
    in
    fill_consts l fr';
    fr'

let set_view t slot v =
  match slot with
  | View_slot i -> t.views.(i) <- v
  | Int_slot _ | Float_slot _ -> invalid_arg "Frame.set_view: not a view slot"

let get_view t i =
  let v = t.views.(i) in
  if v == View.unbound then invalid_arg (Printf.sprintf "Frame.get_view: unbound view slot %d" i);
  v

let set_int t slot v =
  match slot with
  | Int_slot i -> t.ints.(i) <- v
  | Float_slot _ | View_slot _ -> invalid_arg "Frame.set_int: not an int slot"

let set_float t slot v =
  match slot with
  | Float_slot i -> t.floats.(i) <- v
  | Int_slot _ | View_slot _ -> invalid_arg "Frame.set_float: not a float slot"

let get_int t = function
  | Int_slot i -> t.ints.(i)
  | Float_slot _ | View_slot _ -> invalid_arg "Frame.get_int: not an int slot"

let get_float t = function
  | Float_slot i -> t.floats.(i)
  | Int_slot _ | View_slot _ -> invalid_arg "Frame.get_float: not a float slot"
