type op = Sqrt | Fabs | Exp | Log | Pow | Sin | Cos | Floor | Ceil | Fmin | Fmax | Abs | Min | Max

type t = { name : string; op : op; arity : int; result : Ast.typ; int_args : bool; flops : int }

let d name op arity flops = { name; op; arity; result = Ast.Tdouble; int_args = false; flops }
let i name op arity flops = { name; op; arity; result = Ast.Tint; int_args = true; flops }

let all =
  [
    d "sqrt" Sqrt 1 4;
    d "fabs" Fabs 1 1;
    d "exp" Exp 1 8;
    d "log" Log 1 8;
    d "pow" Pow 2 12;
    d "sin" Sin 1 8;
    d "cos" Cos 1 8;
    d "floor" Floor 1 1;
    d "ceil" Ceil 1 1;
    d "fmin" Fmin 2 1;
    d "fmax" Fmax 2 1;
    i "abs" Abs 1 1;
    i "min" Min 2 1;
    i "max" Max 2 1;
  ]

let find name = List.find_opt (fun b -> b.name = name) all
let is_builtin name = find name <> None

let op_of name = Option.map (fun b -> b.op) (find name)

let apply_double name args =
  match (op_of name, args) with
  | Some Sqrt, [ x ] -> sqrt x
  | Some Fabs, [ x ] -> Float.abs x
  | Some Exp, [ x ] -> exp x
  | Some Log, [ x ] -> log x
  | Some Pow, [ x; y ] -> Float.pow x y
  | Some Sin, [ x ] -> sin x
  | Some Cos, [ x ] -> cos x
  | Some Floor, [ x ] -> floor x
  | Some Ceil, [ x ] -> ceil x
  | Some Fmin, [ x; y ] -> Float.min x y
  | Some Fmax, [ x; y ] -> Float.max x y
  | _ -> invalid_arg (Printf.sprintf "Builtins.apply_double: %s/%d" name (List.length args))

let apply_int name args =
  match (op_of name, args) with
  | Some Abs, [ x ] -> abs x
  | Some Min, [ x; y ] -> min x y
  | Some Max, [ x; y ] -> max x y
  | _ -> invalid_arg (Printf.sprintf "Builtins.apply_int: %s/%d" name (List.length args))
