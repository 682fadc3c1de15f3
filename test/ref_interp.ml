(* A tree-walking reference interpreter for mini-C, used only as a test
   oracle for the compiled code. It looks every name up in a chain of
   hashtable scopes and boxes every value, so it shares no code with
   [Kernel_compile] beyond the frontend. Directives are no-ops, and a
   parallel loop runs its iterations in order with a fresh loop variable,
   which is what the sequential hooks do.

   [run_kernel] runs a parallel loop's body as a kernel and also counts
   what the compiled kernel charges, by these rules (decided on the
   values, which always carry their static type here):
   - an arithmetic operator, negation or compound assignment: one flop if
     its result is a double, else one int op;
   - a comparison: one flop if either operand is a double, else one int op;
     [!x]: one flop if [x] is a double, else one int op; [&&], [||], [~],
     [?:], and a [(int)] cast of a double: one int op;
   - a builtin: its [flops] figure, as flops for a double builtin, int ops
     for an int one;
   - an [if], and each evaluation of a [while] or [for] condition (a
     missing [for] condition too): one int op;
   - an array element read or written: its width (8 for a double, 4 for
     an int) in the traffic class [classify] gives the site (a random
     access also counts one transaction); a compound assignment to an
     element both reads and writes it;
   - a [reductiontoarray] update [a[k] += v] or [a[k] *= v]: one combine
     op plus one random transaction of the element's width, instead of
     the assignment's own charges.
   Conversions, literals, variables and [__length] are free. *)

open Mgacc_minic
open Ast
module View = Mgacc_exec.View
module Loop_info = Mgacc_analysis.Loop_info
module Cost = Mgacc_gpusim.Cost
module Coalesce = Mgacc_analysis.Coalesce

type value = Vint of int | Vfloat of float
type cell = Cint of int ref | Cfloat of float ref | Carray of View.t
type meter = { cost : Cost.t; classify : string -> expr -> Coalesce.mode }

type env = {
  prog : program;
  mutable scopes : (string, cell) Hashtbl.t list;
  meter : meter option;  (** set while running a kernel *)
}

let charge env f = match env.meter with Some m -> f m.cost | None -> ()
let flop env = charge env (fun c -> c.Cost.flops <- c.Cost.flops + 1)
let int_ops env n = charge env (fun c -> c.Cost.int_ops <- c.Cost.int_ops + n)
let op_on env = function Vint _ -> int_ops env 1 | Vfloat _ -> flop env

let access env a idx elem =
  match env.meter with
  | None -> ()
  | Some m -> (
      let c = m.cost and width = elem_ty_size elem in
      match m.classify a idx with
      | Coalesce.Coalesced -> c.Cost.coalesced_bytes <- c.Cost.coalesced_bytes + width
      | Coalesce.Broadcast -> c.Cost.broadcast_bytes <- c.Cost.broadcast_bytes + width
      | Coalesce.Strided _ | Coalesce.Random ->
          c.Cost.random_accesses <- c.Cost.random_accesses + 1;
          c.Cost.random_bytes <- c.Cost.random_bytes + width)

let load_f view i =
  let cell = [| 0.0 |] in
  view.View.load_f i cell 0;
  cell.(0)

let store_f view i v = view.View.store_f i [| v |] 0

exception Return_exc of value option
exception Break_exc
exception Continue_exc

let as_int = function Vint n -> n | Vfloat f -> int_of_float f
let as_float = function Vint n -> float_of_int n | Vfloat f -> f

(* The builtins, written out here rather than read from the compiler, so
   that the compiled calls are checked against an independent table. *)
let apply_double (op : Builtins.op) args =
  match (op, args) with
  | Sqrt, [ x ] -> sqrt x
  | Fabs, [ x ] -> Float.abs x
  | Exp, [ x ] -> exp x
  | Log, [ x ] -> log x
  | Pow, [ x; y ] -> Float.pow x y
  | Sin, [ x ] -> sin x
  | Cos, [ x ] -> cos x
  | Floor, [ x ] -> floor x
  | Ceil, [ x ] -> ceil x
  | Fmin, [ x; y ] -> Float.min x y
  | Fmax, [ x; y ] -> Float.max x y
  | _ -> invalid_arg "Ref_interp.apply_double"

let apply_int (op : Builtins.op) args =
  match (op, args) with
  | Abs, [ x ] -> abs x
  | Min, [ x; y ] -> min x y
  | Max, [ x; y ] -> max x y
  | _ -> invalid_arg "Ref_interp.apply_int"

(* C truth: non-zero in the value's own type. *)
let truthy = function Vint n -> n <> 0 | Vfloat f -> f <> 0.0
let push env = env.scopes <- Hashtbl.create 8 :: env.scopes
let pop env = env.scopes <- List.tl env.scopes

let lookup env loc v =
  let rec go = function
    | [] -> Loc.error loc "undefined variable %s" v
    | scope :: rest -> ( match Hashtbl.find_opt scope v with Some c -> c | None -> go rest)
  in
  go env.scopes

let declare env loc v cell =
  let scope = List.hd env.scopes in
  if Hashtbl.mem scope v then Loc.error loc "redeclaration of %s" v;
  Hashtbl.replace scope v cell

(* The static type of [e] in the current scopes. *)
let static_type env e =
  let lookup v =
    match lookup env e.eloc v with
    | Cint _ -> Some Tint
    | Cfloat _ -> Some Tdouble
    | Carray view -> Some (Tarray view.View.elem)
    | exception Loc.Error _ -> None
  in
  Typecheck.type_of_expr_in env.prog lookup e

let convert ty v = match ty with Tdouble -> Vfloat (as_float v) | Tint -> Vint (as_int v) | _ -> v

let rec eval env e : value =
  match e.edesc with
  | Int_lit n -> Vint n
  | Float_lit f -> Vfloat f
  | Var v -> (
      match lookup env e.eloc v with
      | Cint r -> Vint !r
      | Cfloat r -> Vfloat !r
      | Carray _ -> Loc.error e.eloc "array %s used as a scalar" v)
  | Length a -> (
      match lookup env e.eloc a with
      | Carray view -> Vint view.View.length
      | _ -> Loc.error e.eloc "__length of non-array %s" a)
  | Index (a, idx) -> (
      let i = as_int (eval env idx) in
      match lookup env e.eloc a with
      | Carray ({ View.elem = Eint; _ } as view) ->
          access env a idx Eint;
          Vint (view.View.get_i i)
      | Carray view ->
          access env a idx Edouble;
          Vfloat (load_f view i)
      | _ -> Loc.error e.eloc "indexing non-array %s" a)
  | Unop (op, x) -> (
      let v = eval env x in
      match op with
      | Neg ->
          op_on env v;
          (match v with Vint n -> Vint (-n) | Vfloat f -> Vfloat (-.f))
      | Not ->
          op_on env v;
          Vint (if truthy v then 0 else 1)
      | Bit_not ->
          int_ops env 1;
          Vint (lnot (as_int v))
      | Cast_int ->
          (match v with Vfloat _ -> int_ops env 1 | Vint _ -> ());
          Vint (as_int v)
      | Cast_double -> Vfloat (as_float v))
  | Binop (op, x, y) ->
      let v = eval_binop env e.eloc op x y in
      (match op with
      | Eq | Ne | Lt | Le | Gt | Ge | Land | Lor -> ()
      | _ -> op_on env v);
      v
  | Ternary (c, a, b) ->
      (* The result has the branches' common type, whichever is taken. *)
      int_ops env 1;
      convert (static_type env e) (if truthy (eval env c) then eval env a else eval env b)
  | Call (name, args) -> (
      match Builtins.find name with
      | Some b ->
          (* The arguments run right first, as in compiled code. *)
          let vals = List.rev_map (eval env) (List.rev args) in
          if b.Builtins.result = Tdouble then begin
            charge env (fun c -> c.Cost.flops <- c.Cost.flops + b.Builtins.flops);
            Vfloat (apply_double b.Builtins.op (List.map as_float vals))
          end
          else begin
            int_ops env b.Builtins.flops;
            Vint (apply_int b.Builtins.op (List.map as_int vals))
          end
      | None -> (
          match call_function env e.eloc name args with
          | Some v -> v
          | None -> Loc.error e.eloc "void function %s used in an expression" name))

and eval_binop env loc op x y =
  match op with
  | Land ->
      int_ops env 1;
      Vint (if truthy (eval env x) && truthy (eval env y) then 1 else 0)
  | Lor ->
      int_ops env 1;
      Vint (if truthy (eval env x) || truthy (eval env y) then 1 else 0)
  | _ -> (
      (* The right operand first, as compiled code runs it: of two faults,
         the right one's is raised. *)
      let b = eval env y in
      let a = eval env x in
      let cmp r =
        (match (a, b) with Vint _, Vint _ -> int_ops env 1 | _ -> flop env);
        Vint (if r then 1 else 0)
      in
      match (op, a, b) with
      | Add, Vint m, Vint n -> Vint (m + n)
      | Sub, Vint m, Vint n -> Vint (m - n)
      | Mul, Vint m, Vint n -> Vint (m * n)
      | Div, Vint m, Vint n ->
          if n = 0 then Loc.error loc "integer division by zero";
          Vint (m / n)
      | Mod, Vint m, Vint n ->
          if n = 0 then Loc.error loc "integer modulo by zero";
          Vint (m mod n)
      | Add, _, _ -> Vfloat (as_float a +. as_float b)
      | Sub, _, _ -> Vfloat (as_float a -. as_float b)
      | Mul, _, _ -> Vfloat (as_float a *. as_float b)
      | Div, _, _ -> Vfloat (as_float a /. as_float b)
      | Mod, _, _ -> Loc.error loc "%% requires int operands"
      | Band, _, _ -> Vint (as_int a land as_int b)
      | Bor, _, _ -> Vint (as_int a lor as_int b)
      | Bxor, _, _ -> Vint (as_int a lxor as_int b)
      | Shl, _, _ -> Vint (as_int a lsl as_int b)
      | Shr, _, _ -> Vint (as_int a asr as_int b)
      (* Two ints compare as ints: through float, 2^53 + 1 = 2^53. *)
      | Eq, Vint m, Vint n -> cmp (m = n)
      | Ne, Vint m, Vint n -> cmp (m <> n)
      | Lt, Vint m, Vint n -> cmp (m < n)
      | Le, Vint m, Vint n -> cmp (m <= n)
      | Gt, Vint m, Vint n -> cmp (m > n)
      | Ge, Vint m, Vint n -> cmp (m >= n)
      | Eq, _, _ -> cmp (as_float a = as_float b)
      | Ne, _, _ -> cmp (as_float a <> as_float b)
      | Lt, _, _ -> cmp (as_float a < as_float b)
      | Le, _, _ -> cmp (as_float a <= as_float b)
      | Gt, _, _ -> cmp (as_float a > as_float b)
      | Ge, _, _ -> cmp (as_float a >= as_float b)
      | (Land | Lor), _, _ -> assert false)

and assign env loc lv op rhs =
  let combine_int old r =
    match op with
    | Set -> r
    | Add_set -> old + r
    | Sub_set -> old - r
    | Mul_set -> old * r
    | Div_set ->
        if r = 0 then Loc.error loc "integer division by zero";
        old / r
  in
  let combine_float old r =
    match op with
    | Set -> r
    | Add_set -> old +. r
    | Sub_set -> old -. r
    | Mul_set -> old *. r
    | Div_set -> old /. r
  in
  let compound = op <> Set in
  match lv with
  | Lvar v -> (
      match lookup env loc v with
      | Cint r ->
          if compound then int_ops env 1;
          r := combine_int !r (as_int rhs)
      | Cfloat r ->
          if compound then flop env;
          r := combine_float !r (as_float rhs)
      | Carray _ -> Loc.error loc "cannot assign whole array %s" v)
  | Lindex (a, idx) -> (
      let i = as_int (eval env idx) in
      match lookup env loc a with
      | Carray view ->
          let elem = view.View.elem in
          if compound then begin
            (if elem = Eint then int_ops env 1 else flop env);
            access env a idx elem
          end;
          access env a idx elem;
          (* A plain store writes without reading the element. *)
          if elem = Eint then
            let r = as_int rhs in
            view.View.set_i i (if compound then combine_int (view.View.get_i i) r else r)
          else
            let r = as_float rhs in
            store_f view i (if compound then combine_float (load_f view i) r else r)
      | _ -> Loc.error loc "indexing non-array %s" a)

and exec_stmt env s =
  match s.sdesc with
  | Sdecl (Tint, v, init) ->
      let n = match init with Some e -> as_int (eval env e) | None -> 0 in
      declare env s.sloc v (Cint (ref n))
  | Sdecl (_, v, init) ->
      let f = match init with Some e -> as_float (eval env e) | None -> 0.0 in
      declare env s.sloc v (Cfloat (ref f))
  | Sarray_decl (elem, v, len) ->
      let n = as_int (eval env len) in
      if n < 0 then Loc.error s.sloc "negative array length for %s" v;
      declare env s.sloc v
        (Carray
           (match elem with
           | Eint -> View.of_int_array ~name:v (Array.make n 0)
           | Edouble -> View.of_float_array ~name:v (Array.make n 0.0)))
  | Sassign (lv, op, rhs) -> assign env s.sloc lv op (eval env rhs)
  | Sincr (lv, d) -> assign env s.sloc lv Add_set (Vint d)
  | Sexpr { edesc = Call (name, args); eloc } when not (Builtins.is_builtin name) ->
      ignore (call_function env eloc name args)
  | Sexpr e -> ignore (eval env e)
  | Sif (c, then_, else_) ->
      int_ops env 1;
      if truthy (eval env c) then exec_block env then_ else exec_block env else_
  | Swhile (c, body) -> (
      try
        while
          int_ops env 1;
          truthy (eval env c)
        do
          try exec_block env body with Continue_exc -> ()
        done
      with Break_exc -> ())
  | Sfor (hdr, body) ->
      push env;
      Option.iter (exec_stmt env) hdr.for_init;
      (try
         while
           int_ops env 1;
           match hdr.for_cond with None -> true | Some c -> truthy (eval env c)
         do
           (try exec_block env body with Continue_exc -> ());
           Option.iter (exec_stmt env) hdr.for_update
         done
       with Break_exc -> ());
      pop env
  | Sreturn e -> raise (Return_exc (Option.map (eval env) e))
  | Sbreak -> raise Break_exc
  | Scontinue -> raise Continue_exc
  | Sblock body -> exec_block env body
  | Spragma (Dreduction_to_array { rta_op; rta_array }, inner) when env.meter <> None -> (
      match inner.sdesc with
      | Sassign (Lindex (a, idx), aop, rhs)
        when a = rta_array && List.mem (aop, rta_op) [ (Add_set, Rplus); (Mul_set, Rmul) ] -> (
          let v = eval env rhs in
          let i = as_int (eval env idx) in
          match lookup env s.sloc a with
          | Carray view ->
              let elem = view.View.elem in
              (if elem = Eint then int_ops env 1 else flop env);
              charge env (fun c ->
                  c.Cost.random_accesses <- c.Cost.random_accesses + 1;
                  c.Cost.random_bytes <- c.Cost.random_bytes + elem_ty_size elem);
              if elem = Eint then
                view.View.set_i i (View.apply_redop_i rta_op (view.View.get_i i) (as_int v))
              else store_f view i (View.apply_redop_f rta_op (load_f view i) (as_float v))
          | _ -> Loc.error s.sloc "indexing non-array %s" a)
      | Sassign (Lindex (a, idx), Set, { edesc = Binop (Add, { edesc = Index (a', idx'); _ }, v); _ })
        when a = rta_array && a' = a && rta_op = Rplus
             && Pretty.expr_to_string idx = Pretty.expr_to_string idx' ->
          (* kmeans's form, [a[k] = a[k] + v], is [a[k] += v]. *)
          exec_stmt env
            { s with sdesc = Spragma (Dreduction_to_array { rta_op; rta_array }, { inner with sdesc = Sassign (Lindex (a, idx), Add_set, v) }) }
      | _ -> failwith "Ref_interp: only a[k] += v, a[k] = a[k] + v and a[k] *= v reductions are modelled")
  | Spragma ((Dparallel_loop _ | Dlocalaccess _), inner) when env.meter <> None ->
      (* Nested parallelism inside a kernel runs as the plain loop. *)
      exec_stmt env inner
  | Spragma ((Dparallel_loop _ | Dlocalaccess _), inner) -> (
      match Loop_info.of_stmt ~loop_id:0 s with
      | Some loop ->
          let lo = as_int (eval env loop.Loop_info.lower) in
          let hi = as_int (eval env loop.Loop_info.upper) in
          push env;
          let iv = ref lo in
          declare env loop.Loop_info.loop_loc loop.Loop_info.loop_var (Cint iv);
          for i = lo to hi - 1 do
            iv := i;
            try exec_block env loop.Loop_info.body
            with Continue_exc | Break_exc ->
              Loc.error loop.Loop_info.loop_loc "break/continue escaping a parallel loop iteration"
          done;
          pop env
      | None -> exec_stmt env inner)
  | Spragma (_, inner) -> exec_stmt env inner

and exec_block env body =
  push env;
  Fun.protect ~finally:(fun () -> pop env) (fun () -> List.iter (exec_stmt env) body)

(* Scalars by value, arrays by reference; the callee sees only its own
   frame. The result converts to the declared return type. *)
and call_function env loc name args =
  match find_func env.prog name with
  | None -> Loc.error loc "call to undefined function %s" name
  | Some f ->
      let bindings =
        List.map2
          (fun (p : param) (arg : expr) ->
            match (p.param_ty, arg.edesc) with
            | Tarray _, Var a -> (p.param_name, lookup env arg.eloc a)
            | Tarray _, _ -> Loc.error arg.eloc "array argument must be an array name"
            | Tint, _ -> (p.param_name, Cint (ref (as_int (eval env arg))))
            | _ -> (p.param_name, Cfloat (ref (as_float (eval env arg)))))
          f.fparams args
      in
      let saved = env.scopes in
      env.scopes <- [ Hashtbl.create 8 ];
      List.iter (fun (name, cell) -> declare env f.floc name cell) bindings;
      let result =
        match List.iter (exec_stmt env) f.fbody with
        | () -> None
        | exception Return_exc v -> Option.map (convert f.fret) v
      in
      env.scopes <- saved;
      result

let run prog =
  Typecheck.check_program prog;
  let env = { prog; scopes = [ Hashtbl.create 8 ]; meter = None } in
  let main = Option.get (find_func prog "main") in
  (try List.iter (exec_stmt env) main.fbody with Return_exc _ -> ());
  env

let find_array env name =
  match lookup env Loc.dummy name with Carray v -> v | _ -> raise Not_found

let get_scalar env name =
  match lookup env Loc.dummy name with
  | Cint r -> Vint !r
  | Cfloat r -> Vfloat !r
  | Carray _ -> invalid_arg name

(* Run iterations [lo, hi) of [loop] as a kernel over [bindings] (its free
   variables), charging by the rules above; returns the counts. *)
let run_kernel prog ~classify (loop : Loop_info.t) bindings ~lo ~hi =
  let cost = Cost.zero () in
  let env = { prog; scopes = [ Hashtbl.create 8 ]; meter = Some { cost; classify } } in
  List.iter (fun (name, cell) -> declare env loop.Loop_info.loop_loc name cell) bindings;
  push env;
  let iv = ref lo in
  declare env loop.Loop_info.loop_loc loop.Loop_info.loop_var (Cint iv);
  for i = lo to hi - 1 do
    iv := i;
    try exec_block env loop.Loop_info.body
    with Continue_exc | Break_exc ->
      Loc.error loop.Loop_info.loop_loc "break/continue escaping a parallel loop iteration"
  done;
  cost
