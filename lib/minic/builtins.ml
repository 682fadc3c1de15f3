type op = Sqrt | Fabs | Exp | Log | Pow | Sin | Cos | Floor | Ceil | Fmin | Fmax | Abs | Min | Max

type t = { name : string; op : op; arity : int; result : Ast.typ; flops : int }

let d name op arity flops = { name; op; arity; result = Ast.Tdouble; flops }
let i name op arity flops = { name; op; arity; result = Ast.Tint; flops }

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
