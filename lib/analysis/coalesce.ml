open Mgacc_minic.Ast

type mode = Broadcast | Coalesced | Strided of int | Random

type classifier = Mgacc_minic.Ast.expr -> mode

(* Symbolic linearity in the loop variable: [uniform * i + uniform] where
   the multiplier is not a compile-time constant (e.g. x[i*f + j] with f a
   kernel scalar). The exact stride is unknown, but the access pattern is
   strided, not data-dependent — exactly what the layout transformation
   repairs. Reported as [Strided 0]. *)
let rec linearity ~loop_var ~is_uniform e =
  if Affine.is_uniform_expr ~is_uniform e then `Zero
  else
    match e.edesc with
    | Var v when v = loop_var -> `Linear
    | Unop ((Neg | Cast_int), x) -> linearity ~loop_var ~is_uniform x
    | Binop ((Add | Sub), a, b) -> (
        match (linearity ~loop_var ~is_uniform a, linearity ~loop_var ~is_uniform b) with
        | `No, _ | _, `No -> `No
        | `Zero, `Zero -> `Zero
        | _ -> `Linear)
    | Binop (Mul, a, b) -> (
        match (linearity ~loop_var ~is_uniform a, linearity ~loop_var ~is_uniform b) with
        | `Zero, `Linear | `Linear, `Zero -> `Linear
        | `Zero, `Zero -> `Zero
        | _ -> `No)
    | _ -> `No

let make (loop : Loop_info.t) =
  let taint = Taint.compute loop in
  let loop_var = loop.Loop_info.loop_var in
  let is_uniform v = v <> loop_var && not (Taint.is_tainted taint v) in
  fun idx ->
    match Affine.of_expr ~loop_var ~is_uniform idx with
    | Some a -> (
        match abs a.Affine.coeff with
        | 0 -> Broadcast
        | 1 -> Coalesced
        | s -> Strided s)
    | None -> (
        match linearity ~loop_var ~is_uniform idx with
        | `Linear -> Strided 0
        | `Zero | `No -> Random)

let apply_layout_transform = function Strided _ -> Coalesced | m -> m
