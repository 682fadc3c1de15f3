open Mgacc_minic
open Ast
module Cost = Mgacc_gpusim.Cost
module Coalesce = Mgacc_analysis.Coalesce
module Loop_info = Mgacc_analysis.Loop_info

type t = {
  run_iter : Frame.t -> int -> unit;
  make_frame : unit -> Frame.t;
  params : (string * Frame.slot * Ast.typ) list;
  cost : Cost.t;
}

exception Brk
exception Cnt
exception Return

(* ------------------------------------------------------------------ *)
(* Reduction statement decomposition.                                  *)
(* ------------------------------------------------------------------ *)

let same_subscript a b = Pretty.expr_to_string a = Pretty.expr_to_string b

let extract_reduction op stmt =
  let loc = stmt.sloc in
  let bad fmt = Loc.error loc fmt in
  match stmt.sdesc with
  | Sassign (Lindex (arr, idx), aop, rhs) -> (
      let neg e = { edesc = Unop (Neg, e); eloc = e.eloc } in
      let is_dest e = match e.edesc with Index (a, i) -> a = arr && same_subscript i idx | _ -> false in
      match (aop, op) with
      | Add_set, Rplus -> (idx, rhs)
      | Sub_set, Rplus -> (idx, neg rhs)
      | Mul_set, Rmul -> (idx, rhs)
      | Set, _ -> (
          match rhs.edesc with
          | Binop (Add, l, r) when op = Rplus && is_dest l -> (idx, r)
          | Binop (Add, l, r) when op = Rplus && is_dest r -> (idx, l)
          | Binop (Sub, l, r) when op = Rplus && is_dest l -> (idx, neg r)
          | Binop (Mul, l, r) when op = Rmul && is_dest l -> (idx, r)
          | Binop (Mul, l, r) when op = Rmul && is_dest r -> (idx, l)
          | Call (("fmax" | "max"), [ l; r ]) when op = Rmax && is_dest l -> (idx, r)
          | Call (("fmax" | "max"), [ l; r ]) when op = Rmax && is_dest r -> (idx, l)
          | Call (("fmin" | "min"), [ l; r ]) when op = Rmin && is_dest l -> (idx, r)
          | Call (("fmin" | "min"), [ l; r ]) when op = Rmin && is_dest r -> (idx, l)
          | _ ->
              bad "statement does not match a %s-reduction into %s" (redop_to_string op) arr)
      | _ ->
          bad "assignment operator does not match the declared %s reduction" (redop_to_string op))
  | _ -> Loc.error loc "reductiontoarray must annotate an assignment into an array element"

(* ------------------------------------------------------------------ *)
(* Compilation context.                                                *)
(* ------------------------------------------------------------------ *)

type stager = {
  directive : Frame.scope -> stmt -> (Frame.t -> unit) -> Frame.t -> unit;
  parallel_loop :
    Frame.scope -> Loop_info.t -> (Frame.t -> int -> int -> unit) -> Frame.t -> unit;
}

(* Host code: the program's functions, each compiled once, on first
   reference, into a layout of its own. *)
type host = { prog : program; stager : stager; funcs : (string, fn) Hashtbl.t; host_cost : Cost.t }

and fn = {
  fn_layout : Frame.Layout.t;
  fn_params : Frame.slot list;
  fn_result : Frame.slot option;
  mutable fn_body : Frame.t -> unit;  (** read at call time: recursion sees the final body *)
  mutable fn_scope : Frame.scope;  (** the names in force at the end of the body *)
}

type ctx = {
  layout : Frame.Layout.t;
  cost : Cost.t;
  classify : string -> Ast.expr -> Coalesce.mode;
  host : host option;  (** [None] while compiling a kernel body *)
  result : Frame.slot option;  (** where [return e] leaves [e] *)
}

let host_classify _ _ = Coalesce.Coalesced

let ty_of ctx e =
  let lookup v = Option.map snd (Frame.Layout.lookup ctx.layout v) in
  match ctx.host with
  | Some h -> Typecheck.type_of_expr_in h.prog lookup e
  | None -> Typecheck.type_of_expr lookup e

let slot_of ctx loc v =
  match Frame.Layout.lookup ctx.layout v with
  | Some (slot, ty) -> (slot, ty)
  | None -> Loc.error loc "kernel compilation: unbound variable %s" v

let view_slot_of ctx loc a =
  match slot_of ctx loc a with
  | Frame.View_slot i, Tarray elem -> (i, elem)
  | _ -> Loc.error loc "kernel compilation: %s is not an array" a

(* Cost charge for one access of [width] bytes at the given site mode. *)
let charge ctx mode width =
  let cost = ctx.cost in
  match mode with
  | Coalesce.Broadcast -> fun () -> cost.Cost.broadcast_bytes <- cost.Cost.broadcast_bytes + width
  | Coalesce.Coalesced -> fun () -> cost.Cost.coalesced_bytes <- cost.Cost.coalesced_bytes + width
  | Coalesce.Strided _ | Coalesce.Random ->
      fun () ->
        cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
        cost.Cost.random_bytes <- cost.Cost.random_bytes + width

let int_div loc a b =
  if b = 0 then Loc.error loc "integer division by zero";
  a / b

let int_mod loc a b =
  if b = 0 then Loc.error loc "integer modulo by zero";
  a mod b

let nop : Frame.t -> unit = fun _ -> ()

let seq fs =
  match fs with
  | [] -> nop
  | [ f ] -> f
  | fs ->
      let arr = Array.of_list fs in
      fun fr -> Array.iter (fun f -> f fr) arr

let apply_binop_assign_int loc op =
  match op with
  | Set -> fun _ rhs -> rhs
  | Add_set -> ( + )
  | Sub_set -> ( - )
  | Mul_set -> ( * )
  | Div_set -> fun a b -> int_div loc a b

let apply_binop_assign_float op =
  match op with
  | Set -> fun _ rhs -> rhs
  | Add_set -> ( +. )
  | Sub_set -> ( -. )
  | Mul_set -> ( *. )
  | Div_set -> ( /. )

(* ------------------------------------------------------------------ *)
(* Expression compilation.                                             *)
(* ------------------------------------------------------------------ *)

let rec comp_f ctx e : Frame.t -> float =
  match ty_of ctx e with
  | Tint ->
      let f = comp_i ctx e in
      fun fr -> float_of_int (f fr)
  | Tdouble -> comp_f_native ctx e
  | t -> Loc.error e.eloc "expected numeric expression, got %s" (typ_to_string t)

and comp_f_native ctx e : Frame.t -> float =
  let cost = ctx.cost in
  match e.edesc with
  | Float_lit v -> fun _ -> v
  | Var v -> (
      match slot_of ctx e.eloc v with
      | Frame.Float_slot i, _ -> fun fr -> Array.unsafe_get fr.Frame.floats i
      | _ -> Loc.error e.eloc "%s is not a double variable" v)
  | Index (a, idx) ->
      let vi, elem = view_slot_of ctx e.eloc a in
      if elem <> Edouble then Loc.error e.eloc "%s is not a double array" a;
      let ci = comp_i ctx idx in
      let bump = charge ctx (ctx.classify a idx) 8 in
      fun fr ->
        bump ();
        (Frame.get_view fr vi).View.get_f (ci fr)
  | Unop (Neg, x) ->
      let f = comp_f ctx x in
      fun fr ->
        cost.Cost.flops <- cost.Cost.flops + 1;
        -.f fr
  | Unop (Cast_double, x) -> comp_f ctx x
  | Unop ((Not | Bit_not | Cast_int), _) -> assert false (* typed Tint *)
  | Binop (op, x, y) -> (
      let fx = comp_f ctx x and fy = comp_f ctx y in
      let arith op2 =
        fun fr ->
          cost.Cost.flops <- cost.Cost.flops + 1;
          op2 (fx fr) (fy fr)
      in
      match op with
      | Add -> arith ( +. )
      | Sub -> arith ( -. )
      | Mul -> arith ( *. )
      | Div -> arith ( /. )
      | Mod | Eq | Ne | Lt | Le | Gt | Ge | Land | Lor | Band | Bor | Bxor | Shl | Shr ->
          assert false (* typed Tint *))
  | Ternary (c, a, b) ->
      let cc = comp_cond ctx c and fa = comp_f ctx a and fb = comp_f ctx b in
      fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        if cc fr then fa fr else fb fr
  | Call (name, args) -> (
      match Builtins.find name with
      | Some b when b.Builtins.result = Tdouble -> (
          let flops = b.Builtins.flops in
          match List.map (comp_f ctx) args with
          | [ a1 ] ->
              let g = (fun x -> Builtins.apply_double name [ x ]) in
              fun fr ->
                cost.Cost.flops <- cost.Cost.flops + flops;
                g (a1 fr)
          | [ a1; a2 ] ->
              let g = (fun x y -> Builtins.apply_double name [ x; y ]) in
              fun fr ->
                cost.Cost.flops <- cost.Cost.flops + flops;
                g (a1 fr) (a2 fr)
          | _ -> Loc.error e.eloc "unsupported builtin arity for %s" name)
      | Some _ -> assert false (* int builtin: typed Tint *)
      | None -> (
          let call, fn = comp_call ctx e.eloc name args in
          match fn.fn_result with
          | Some (Frame.Float_slot r) -> fun fr -> Array.unsafe_get (call fr).Frame.floats r
          | _ -> assert false (* typed by the function's result *)))
  | Int_lit _ | Length _ -> assert false (* typed Tint *)

and comp_i ctx e : Frame.t -> int =
  match ty_of ctx e with
  | Tdouble ->
      (* C-style implicit truncation. *)
      let f = comp_f_native ctx e in
      fun fr -> int_of_float (f fr)
  | Tint -> comp_i_native ctx e
  | t -> Loc.error e.eloc "expected numeric expression, got %s" (typ_to_string t)

(* A condition: non-zero in the operand's own type, so [0.5] is true. It
   charges what the int conversion it replaces charged: nothing. *)
and comp_cond ctx e : Frame.t -> bool =
  match ty_of ctx e with
  | Tdouble ->
      let f = comp_f_native ctx e in
      fun fr -> f fr <> 0.0
  | _ ->
      let f = comp_i ctx e in
      fun fr -> f fr <> 0

and comp_i_native ctx e : Frame.t -> int =
  let cost = ctx.cost in
  match e.edesc with
  | Int_lit v -> fun _ -> v
  | Var v -> (
      match slot_of ctx e.eloc v with
      | Frame.Int_slot i, _ -> fun fr -> Array.unsafe_get fr.Frame.ints i
      | _ -> Loc.error e.eloc "%s is not an int variable" v)
  | Length a ->
      let vi, _ = view_slot_of ctx e.eloc a in
      fun fr -> (Frame.get_view fr vi).View.length
  | Index (a, idx) ->
      let vi, elem = view_slot_of ctx e.eloc a in
      if elem <> Eint then Loc.error e.eloc "%s is not an int array" a;
      let ci = comp_i ctx idx in
      let bump = charge ctx (ctx.classify a idx) 4 in
      fun fr ->
        bump ();
        (Frame.get_view fr vi).View.get_i (ci fr)
  | Unop (Neg, x) ->
      let f = comp_i ctx x in
      fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        -f fr
  | Unop (Not, x) ->
      let t = ty_of ctx x in
      if t = Tdouble then begin
        let f = comp_f ctx x in
        fun fr ->
          cost.Cost.flops <- cost.Cost.flops + 1;
          if f fr = 0.0 then 1 else 0
      end
      else begin
        let f = comp_i ctx x in
        fun fr ->
          cost.Cost.int_ops <- cost.Cost.int_ops + 1;
          if f fr = 0 then 1 else 0
      end
  | Unop (Bit_not, x) ->
      let f = comp_i ctx x in
      fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        lnot (f fr)
  | Unop (Cast_int, x) -> (
      match ty_of ctx x with
      | Tdouble ->
          let f = comp_f_native ctx x in
          fun fr ->
            cost.Cost.int_ops <- cost.Cost.int_ops + 1;
            int_of_float (f fr)
      | _ -> comp_i ctx x)
  | Unop (Cast_double, _) -> assert false (* typed Tdouble *)
  | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), x, y) ->
      let tx = ty_of ctx x and ty_ = ty_of ctx y in
      if tx = Tdouble || ty_ = Tdouble then begin
        let fx = comp_f ctx x and fy = comp_f ctx y in
        let cmp : float -> float -> bool =
          match op with
          | Eq -> ( = )
          | Ne -> ( <> )
          | Lt -> ( < )
          | Le -> ( <= )
          | Gt -> ( > )
          | Ge -> ( >= )
          | _ -> assert false
        in
        fun fr ->
          cost.Cost.flops <- cost.Cost.flops + 1;
          if cmp (fx fr) (fy fr) then 1 else 0
      end
      else begin
        let fx = comp_i ctx x and fy = comp_i ctx y in
        let cmp : int -> int -> bool =
          match op with
          | Eq -> ( = )
          | Ne -> ( <> )
          | Lt -> ( < )
          | Le -> ( <= )
          | Gt -> ( > )
          | Ge -> ( >= )
          | _ -> assert false
        in
        fun fr ->
          cost.Cost.int_ops <- cost.Cost.int_ops + 1;
          if cmp (fx fr) (fy fr) then 1 else 0
      end
  | Binop (Land, x, y) ->
      let fx = comp_cond ctx x and fy = comp_cond ctx y in
      fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        if fx fr && fy fr then 1 else 0
  | Binop (Lor, x, y) ->
      let fx = comp_cond ctx x and fy = comp_cond ctx y in
      fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        if fx fr || fy fr then 1 else 0
  | Binop (op, x, y) -> (
      let fx = comp_i ctx x and fy = comp_i ctx y in
      let arith op2 =
        fun fr ->
          cost.Cost.int_ops <- cost.Cost.int_ops + 1;
          op2 (fx fr) (fy fr)
      in
      match op with
      | Add -> arith ( + )
      | Sub -> arith ( - )
      | Mul -> arith ( * )
      | Div -> arith (fun a b -> int_div e.eloc a b)
      | Mod -> arith (fun a b -> int_mod e.eloc a b)
      | Band -> arith ( land )
      | Bor -> arith ( lor )
      | Bxor -> arith ( lxor )
      | Shl -> arith ( lsl )
      | Shr -> arith ( asr )
      | Eq | Ne | Lt | Le | Gt | Ge | Land | Lor -> assert false)
  | Ternary (c, a, b) ->
      let cc = comp_cond ctx c and fa = comp_i ctx a and fb = comp_i ctx b in
      fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        if cc fr then fa fr else fb fr
  | Call (name, args) -> (
      match Builtins.find name with
      | Some b when b.Builtins.result = Tint -> (
          let flops = b.Builtins.flops in
          match List.map (comp_i ctx) args with
          | [ a1 ] ->
              fun fr ->
                cost.Cost.int_ops <- cost.Cost.int_ops + flops;
                Builtins.apply_int name [ a1 fr ]
          | [ a1; a2 ] ->
              fun fr ->
                cost.Cost.int_ops <- cost.Cost.int_ops + flops;
                Builtins.apply_int name [ a1 fr; a2 fr ]
          | _ -> Loc.error e.eloc "unsupported builtin arity for %s" name)
      | Some _ -> assert false
      | None -> (
          let call, fn = comp_call ctx e.eloc name args in
          match fn.fn_result with
          | Some (Frame.Int_slot r) -> fun fr -> Array.unsafe_get (call fr).Frame.ints r
          | _ -> assert false (* typed by the function's result *)))
  | Float_lit _ -> assert false (* typed Tdouble *)

(* A call to a user function runs its body in a fresh frame and returns
   that frame. Scalar arguments are passed by value; array arguments pass
   the view by reference, C pointer style. Functions see only their own
   frame: no lexical capture. *)
and comp_call ctx loc name args =
  let h =
    match ctx.host with
    | Some h -> h
    | None -> Loc.error loc "user function calls are not allowed in kernels: %s" name
  in
  let fn = function_of h loc name in
  if List.length args <> List.length fn.fn_params then
    Loc.error loc "function %s: arity mismatch" name;
  let bind slot (arg : expr) =
    match slot with
    | Frame.View_slot dst -> (
        match arg.edesc with
        | Var a ->
            let src, _ = view_slot_of ctx arg.eloc a in
            fun caller callee -> callee.Frame.views.(dst) <- caller.Frame.views.(src)
        | _ -> Loc.error arg.eloc "array argument must be an array name")
    | Frame.Int_slot dst ->
        let f = comp_i ctx arg in
        fun caller callee -> callee.Frame.ints.(dst) <- f caller
    | Frame.Float_slot dst ->
        let f = comp_f ctx arg in
        fun caller callee -> callee.Frame.floats.(dst) <- f caller
  in
  let binds = Array.of_list (List.map2 bind fn.fn_params args) in
  ( (fun fr ->
      let callee = Frame.create fn.fn_layout in
      Array.iter (fun b -> b fr callee) binds;
      (try fn.fn_body callee with Return -> ());
      callee),
    fn )

and function_of h loc name =
  match Hashtbl.find_opt h.funcs name with
  | Some fn -> fn
  | None ->
      let f =
        match find_func h.prog name with
        | Some f -> f
        | None -> Loc.error loc "call to undefined function %s" name
      in
      let layout = Frame.Layout.create () in
      let params =
        List.map (fun (p : param) -> Frame.Layout.declare layout f.floc p.param_name p.param_ty) f.fparams
      in
      let result =
        match f.fret with Tint | Tdouble -> Some (Frame.Layout.fresh layout f.floc f.fret) | _ -> None
      in
      let fn =
        { fn_layout = layout; fn_params = params; fn_result = result; fn_body = nop; fn_scope = Frame.Layout.scope layout }
      in
      Hashtbl.replace h.funcs name fn;
      let ctx = { layout; cost = h.host_cost; classify = host_classify; host = Some h; result } in
      (* Parameters and the body's own declarations share one scope, as in C. *)
      fn.fn_body <- comp_block_no_scope ctx f.fbody;
      fn.fn_scope <- Frame.Layout.scope layout;
      fn

(* ------------------------------------------------------------------ *)
(* Statement compilation.                                              *)
(* ------------------------------------------------------------------ *)

and comp_stmt ctx s : Frame.t -> unit =
  let cost = ctx.cost in
  match s.sdesc with
  | Sdecl (ty, name, init) -> (
      (* The initializer sees the names in force before the declaration. *)
      let init =
        match (ty, init) with
        | Tint, Some e -> `I (comp_i ctx e)
        | Tdouble, Some e -> `F (comp_f ctx e)
        | _ -> `Zero
      in
      let slot = Frame.Layout.declare ctx.layout s.sloc name ty in
      match (slot, init) with
      | Frame.Int_slot i, `Zero -> fun fr -> Array.unsafe_set fr.Frame.ints i 0
      | Frame.Int_slot i, `I f -> fun fr -> Array.unsafe_set fr.Frame.ints i (f fr)
      | Frame.Float_slot i, `Zero -> fun fr -> Array.unsafe_set fr.Frame.floats i 0.0
      | Frame.Float_slot i, `F f -> fun fr -> Array.unsafe_set fr.Frame.floats i (f fr)
      | _ -> Loc.error s.sloc "unsupported declaration of %s" name)
  | Sarray_decl (elem, name, len) ->
      if ctx.host = None then
        Loc.error s.sloc "array declaration of %s not allowed inside a kernel" name;
      let cl = comp_i ctx len in
      let vi =
        match Frame.Layout.declare ctx.layout s.sloc name (Tarray elem) with
        | Frame.View_slot i -> i
        | _ -> assert false
      in
      let make =
        match elem with
        | Eint -> fun n -> View.of_int_array ~name (Array.make n 0)
        | Edouble -> fun n -> View.of_float_array ~name (Array.make n 0.0)
      in
      let loc = s.sloc in
      fun fr ->
        let n = cl fr in
        if n < 0 then Loc.error loc "negative array length for %s" name;
        fr.Frame.views.(vi) <- Some (make n)
  | Sassign (Lvar v, op, rhs) -> (
      match slot_of ctx s.sloc v with
      | Frame.Int_slot i, _ ->
          let f = comp_i ctx rhs in
          if op = Set then fun fr -> Array.unsafe_set fr.Frame.ints i (f fr)
          else
            let g = apply_binop_assign_int s.sloc op in
            fun fr ->
              cost.Cost.int_ops <- cost.Cost.int_ops + 1;
              Array.unsafe_set fr.Frame.ints i (g (Array.unsafe_get fr.Frame.ints i) (f fr))
      | Frame.Float_slot i, _ ->
          let f = comp_f ctx rhs in
          if op = Set then fun fr -> Array.unsafe_set fr.Frame.floats i (f fr)
          else
            let g = apply_binop_assign_float op in
            fun fr ->
              cost.Cost.flops <- cost.Cost.flops + 1;
              Array.unsafe_set fr.Frame.floats i (g (Array.unsafe_get fr.Frame.floats i) (f fr))
      | Frame.View_slot _, _ -> Loc.error s.sloc "cannot assign whole array %s" v)
  | Sassign (Lindex (a, idx), op, rhs) ->
      let vi, elem = view_slot_of ctx s.sloc a in
      let ci = comp_i ctx idx in
      let width = elem_ty_size elem in
      let bump_w = charge ctx (ctx.classify a idx) width in
      (match elem with
      | Edouble ->
          let f = comp_f ctx rhs in
          if op = Set then
            fun fr ->
              bump_w ();
              (Frame.get_view fr vi).View.set_f (ci fr) (f fr)
          else
            let g = apply_binop_assign_float op in
            let bump_r = charge ctx (ctx.classify a idx) width in
            fun fr ->
              cost.Cost.flops <- cost.Cost.flops + 1;
              bump_r ();
              bump_w ();
              let view = Frame.get_view fr vi in
              let i = ci fr in
              view.View.set_f i (g (view.View.get_f i) (f fr))
      | Eint ->
          let f = comp_i ctx rhs in
          if op = Set then
            fun fr ->
              bump_w ();
              (Frame.get_view fr vi).View.set_i (ci fr) (f fr)
          else
            let g = apply_binop_assign_int s.sloc op in
            let bump_r = charge ctx (ctx.classify a idx) width in
            fun fr ->
              cost.Cost.int_ops <- cost.Cost.int_ops + 1;
              bump_r ();
              bump_w ();
              let view = Frame.get_view fr vi in
              let i = ci fr in
              view.View.set_i i (g (view.View.get_i i) (f fr)))
  | Sincr (lv, d) ->
      comp_stmt ctx
        { s with sdesc = Sassign (lv, Add_set, { edesc = Int_lit d; eloc = s.sloc }) }
  | Sexpr { edesc = Call (name, args); eloc } when not (Builtins.is_builtin name) ->
      (* Calls to void user functions are legal as statements. *)
      let call, _ = comp_call ctx eloc name args in
      fun fr -> ignore (call fr : Frame.t)
  | Sexpr e ->
      let t = ty_of ctx e in
      if t = Tdouble then begin
        let f = comp_f ctx e in
        fun fr -> ignore (f fr)
      end
      else begin
        let f = comp_i ctx e in
        fun fr -> ignore (f fr)
      end
  | Sif (c, then_, else_) ->
      let cc = comp_cond ctx c in
      let ct = comp_block ctx then_ and ce = comp_block ctx else_ in
      fun fr ->
        cost.Cost.int_ops <- cost.Cost.int_ops + 1;
        if cc fr then ct fr else ce fr
  | Swhile (c, body) ->
      let cc = comp_cond ctx c in
      let cb = comp_block ctx body in
      fun fr ->
        (try
           while
             cost.Cost.int_ops <- cost.Cost.int_ops + 1;
             cc fr
           do
             try cb fr with Cnt -> ()
           done
         with Brk -> ())
  | Sfor (hdr, body) ->
      Frame.Layout.enter_scope ctx.layout;
      let init = match hdr.for_init with Some s' -> comp_stmt ctx s' | None -> nop in
      let cond = match hdr.for_cond with Some e -> comp_cond ctx e | None -> fun _ -> true in
      let update = match hdr.for_update with Some s' -> comp_stmt ctx s' | None -> nop in
      let cb = comp_block_no_scope ctx body in
      Frame.Layout.leave_scope ctx.layout;
      fun fr ->
        init fr;
        (try
           while
             cost.Cost.int_ops <- cost.Cost.int_ops + 1;
             cond fr
           do
             (try cb fr with Cnt -> ());
             update fr
           done
         with Brk -> ())
  | Sreturn e -> (
      if ctx.host = None then Loc.error s.sloc "return is not allowed inside a kernel";
      match (e, ctx.result) with
      | None, _ -> fun _ -> raise Return
      | Some e, Some (Frame.Int_slot r) ->
          let f = comp_i ctx e in
          fun fr ->
            Array.unsafe_set fr.Frame.ints r (f fr);
            raise Return
      | Some e, Some (Frame.Float_slot r) ->
          let f = comp_f ctx e in
          fun fr ->
            Array.unsafe_set fr.Frame.floats r (f fr);
            raise Return
      | Some _, _ -> Loc.error s.sloc "return with a value outside a value-returning function")
  | Sbreak -> fun _ -> raise Brk
  | Scontinue -> fun _ -> raise Cnt
  | Sblock body -> comp_block ctx body
  | Spragma (Dreduction_to_array { rta_op; rta_array }, inner) when ctx.host = None ->
      let idx, contrib = extract_reduction rta_op inner in
      let vi, elem = view_slot_of ctx s.sloc rta_array in
      let ci = comp_i ctx idx in
      let width = elem_ty_size elem in
      (* A reduction update behaves like an atomic scatter: charge one
         transaction plus the combine op. *)
      (match elem with
      | Edouble ->
          let cf = comp_f ctx contrib in
          fun fr ->
            cost.Cost.flops <- cost.Cost.flops + 1;
            cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
            cost.Cost.random_bytes <- cost.Cost.random_bytes + width;
            (Frame.get_view fr vi).View.reduce_f rta_op (ci fr) (cf fr)
      | Eint ->
          let cf = comp_i ctx contrib in
          fun fr ->
            cost.Cost.int_ops <- cost.Cost.int_ops + 1;
            cost.Cost.random_accesses <- cost.Cost.random_accesses + 1;
            cost.Cost.random_bytes <- cost.Cost.random_bytes + width;
            (Frame.get_view fr vi).View.reduce_i rta_op (ci fr) (cf fr))
  | Spragma (Dreduction_to_array _, inner) ->
      (* Outside a kernel, a reduction statement is just the statement. *)
      comp_stmt ctx inner
  | Spragma ((Dparallel_loop _ | Dlocalaccess _), inner) -> (
      match ctx.host with
      | None ->
          (* Nested parallelism: the inner loop's iterations map to vector
             lanes. Executing them in order is a valid schedule; the
             launcher separately multiplies the thread count for
             occupancy. *)
          comp_stmt ctx inner
      | Some h -> (
          match Loop_info.of_stmt ~loop_id:0 s with
          | Some loop ->
              let scope = Frame.Layout.scope ctx.layout in
              h.stager.parallel_loop scope loop (comp_sequential ctx loop)
          | None ->
              (* A localaccess stack with no parallel directive: just run it. *)
              comp_stmt ctx inner))
  | Spragma (d, inner) -> (
      match ctx.host with
      | None ->
          Loc.error s.sloc "directive not allowed inside a kernel body: %s"
            (Pretty.directive_to_string d)
      | Some h ->
          let scope = Frame.Layout.scope ctx.layout in
          h.stager.directive scope s (comp_stmt ctx inner))

and comp_block ctx body =
  Frame.Layout.enter_scope ctx.layout;
  let f = comp_block_no_scope ctx body in
  Frame.Layout.leave_scope ctx.layout;
  f

and comp_block_no_scope ctx body = seq (List.map (comp_stmt ctx) body)

(* A parallel loop's iterations [lo, hi), run in order in the host frame
   with a fresh loop variable. *)
and comp_sequential ctx (loop : Loop_info.t) =
  Frame.Layout.enter_scope ctx.layout;
  let iv =
    match Frame.Layout.declare ctx.layout loop.Loop_info.loop_loc loop.Loop_info.loop_var Tint with
    | Frame.Int_slot i -> i
    | _ -> assert false
  in
  let body = comp_block ctx loop.Loop_info.body in
  Frame.Layout.leave_scope ctx.layout;
  let loc = loop.Loop_info.loop_loc in
  fun fr lo hi ->
    try
      for i = lo to hi - 1 do
        Array.unsafe_set fr.Frame.ints iv i;
        body fr
      done
    with Brk | Cnt -> Loc.error loc "break/continue escaping a parallel loop iteration"

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)
(* ------------------------------------------------------------------ *)

let compile ~loop ~params ~classify =
  let layout = Frame.Layout.create () in
  let cost = Cost.zero () in
  let ctx = { layout; cost; classify; host = None; result = None } in
  let loop_loc = loop.Loop_info.loop_loc in
  let iv_slot = Frame.Layout.declare layout loop_loc loop.Loop_info.loop_var Tint in
  let param_slots =
    List.map (fun (name, ty) -> (name, Frame.Layout.declare layout loop_loc name ty, ty)) params
  in
  let body = comp_block ctx loop.Loop_info.body in
  let iv_index = match iv_slot with Frame.Int_slot i -> i | _ -> assert false in
  {
    run_iter =
      (fun fr i ->
        Array.unsafe_set fr.Frame.ints iv_index i;
        body fr);
    make_frame = (fun () -> Frame.create layout);
    params = param_slots;
    cost;
  }

let host prog stager = { prog; stager; funcs = Hashtbl.create 8; host_cost = Cost.zero () }

let compile_function h name =
  let fn = function_of h Loc.dummy name in
  ( fn.fn_scope,
    fun () ->
      let fr = Frame.create fn.fn_layout in
      (try fn.fn_body fr with Return -> ());
      fr )

let expr_ctx h scope =
  { layout = Frame.Layout.of_scope scope; cost = h.host_cost; classify = host_classify; host = Some h; result = None }

let compile_int h scope e = comp_i (expr_ctx h scope) e
let compile_float h scope e = comp_f (expr_ctx h scope) e
