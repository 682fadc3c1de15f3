open Mgacc_minic
open Ast

type t = { coeff : int; const : int; terms : expr list }

let rec mentions_var e v =
  match e.edesc with
  | Var x -> x = v
  | Int_lit _ | Float_lit _ | Length _ -> false
  | Index (_, i) -> mentions_var i v
  | Unop (_, x) -> mentions_var x v
  | Binop (_, x, y) -> mentions_var x v || mentions_var y v
  | Ternary (c, a, b) -> mentions_var c v || mentions_var a v || mentions_var b v
  | Call (_, args) -> List.exists (fun a -> mentions_var a v) args

(* Is [e] loop-uniform: mentions only uniform variables, no array loads
   (device data may differ per thread), integer-valued operators only. *)
let rec is_uniform_expr ~is_uniform (e : expr) =
  match e.edesc with
  | Int_lit _ -> true
  | Float_lit _ -> false
  | Var v -> is_uniform v
  | Length _ -> true
  | Index _ -> false
  | Unop ((Neg | Bit_not | Cast_int), x) -> is_uniform_expr ~is_uniform x
  | Unop ((Not | Cast_double), _) -> false
  | Binop ((Add | Sub | Mul | Div | Mod | Band | Bor | Bxor | Shl | Shr), x, y) ->
      is_uniform_expr ~is_uniform x && is_uniform_expr ~is_uniform y
  | Binop (_, _, _) -> false
  | Ternary _ -> false
  | Call _ -> false

let rec of_expr ~loop_var ~is_uniform e =
  let recur = of_expr ~loop_var ~is_uniform in
  let uniform_leaf () =
    if is_uniform_expr ~is_uniform e then Some { coeff = 0; const = 0; terms = [ e ] } else None
  in
  match e.edesc with
  | Int_lit n -> Some { coeff = 0; const = n; terms = [] }
  | Var v when v = loop_var -> Some { coeff = 1; const = 0; terms = [] }
  | Var _ | Length _ -> uniform_leaf ()
  | Unop (Neg, x) -> (
      match recur x with
      | Some a ->
          Some
            {
              coeff = -a.coeff;
              const = -a.const;
              terms = List.map (fun t -> { edesc = Unop (Neg, t); eloc = t.eloc }) a.terms;
            }
      | None -> None)
  | Binop (Add, x, y) -> (
      match (recur x, recur y) with
      | Some a, Some b ->
          Some { coeff = a.coeff + b.coeff; const = a.const + b.const; terms = a.terms @ b.terms }
      | _ -> None)
  | Binop (Sub, x, y) -> (
      let neg_y = { edesc = Unop (Neg, y); eloc = y.eloc } in
      match (recur x, recur neg_y) with
      | Some a, Some b ->
          Some { coeff = a.coeff + b.coeff; const = a.const + b.const; terms = a.terms @ b.terms }
      | _ -> None)
  | Binop (Mul, x, y) -> (
      (* Affine * constant (either side); anything else only if both sides
         are loop-uniform, in which case the product is a uniform term. *)
      let const_of e' =
        match recur e' with
        | Some { coeff = 0; const = n; terms = [] } -> Some n
        | _ -> None
      in
      match (const_of x, const_of y) with
      | Some k, _ -> (
          match recur y with
          | Some b ->
              Some
                {
                  coeff = k * b.coeff;
                  const = k * b.const;
                  terms =
                    List.map
                      (fun t ->
                        { edesc = Binop (Mul, { edesc = Int_lit k; eloc = t.eloc }, t); eloc = t.eloc })
                      b.terms;
                }
          | None -> None)
      | _, Some k -> (
          match recur x with
          | Some a ->
              Some
                {
                  coeff = k * a.coeff;
                  const = k * a.const;
                  terms =
                    List.map
                      (fun t ->
                        { edesc = Binop (Mul, t, { edesc = Int_lit k; eloc = t.eloc }); eloc = t.eloc })
                      a.terms;
                }
          | None -> None)
      | None, None -> uniform_leaf ())
  | Unop ((Bit_not | Cast_int), _)
  | Binop ((Div | Mod | Band | Bor | Bxor | Shl | Shr), _, _) ->
      (* Non-linear in general: admissible only as a uniform term. *)
      uniform_leaf ()
  | Unop ((Not | Cast_double), _)
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge | Land | Lor), _, _)
  | Ternary _ | Call _ | Float_lit _ | Index _ ->
      if mentions_var e loop_var then None else uniform_leaf ()

let is_literal t = t.terms = []
