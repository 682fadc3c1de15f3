open Mgacc_minic

type slot = Int_slot of int | Float_slot of int | View_slot of int

type t = { ints : int array; floats : float array; views : View.t option array }

module Smap = Map.Make (String)

type scope = (slot * Ast.typ) Smap.t list

let rec lookup_in scope name =
  match scope with
  | [] -> None
  | names :: rest -> (
      match Smap.find_opt name names with Some v -> Some v | None -> lookup_in rest name)

module Layout = struct
  type t = {
    mutable n_ints : int;
    mutable n_floats : int;
    mutable n_views : int;
    mutable scopes : scope;
  }

  let create () = { n_ints = 0; n_floats = 0; n_views = 0; scopes = [ Smap.empty ] }
  let of_scope scopes = { n_ints = 0; n_floats = 0; n_views = 0; scopes }
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

  let declare t loc name ty =
    match t.scopes with
    | [] -> assert false
    | names :: rest ->
        if Smap.mem name names then Loc.error loc "redeclaration of %s" name;
        if ty = Ast.Tvoid then Loc.error loc "void variable %s" name;
        let slot = fresh t loc ty in
        t.scopes <- Smap.add name (slot, ty) names :: rest;
        slot

  let lookup t name = lookup_in t.scopes name
  let scope t = t.scopes
  let int_bank_size t = t.n_ints
  let float_bank_size t = t.n_floats
  let view_bank_size t = t.n_views
end

let create (layout : Layout.t) =
  {
    ints = Array.make (max 1 (Layout.int_bank_size layout)) 0;
    floats = Array.make (max 1 (Layout.float_bank_size layout)) 0.0;
    views = Array.make (max 1 (Layout.view_bank_size layout)) None;
  }

let set_view t slot v =
  match slot with
  | View_slot i -> t.views.(i) <- Some v
  | Int_slot _ | Float_slot _ -> invalid_arg "Frame.set_view: not a view slot"

let get_view t i =
  match Array.unsafe_get t.views i with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Frame.get_view: unbound view slot %d" i)

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
