(** Builtin math functions callable from mini-C (host code and kernels).

    Double builtins mirror the C math library names the benchmark sources
    use; integer builtins cover the index arithmetic helpers. The [flops]
    figure is the cost charged per call by the timing model (transcendental
    functions cost more than one FLOP on both CPUs and GPUs). *)

type op = Sqrt | Fabs | Exp | Log | Pow | Sin | Cos | Floor | Ceil | Fmin | Fmax | Abs | Min | Max
(** The operation, for resolving a call once when compiling it. *)

type t = {
  name : string;
  op : op;
  arity : int;
  result : Ast.typ;  (** [Tint] or [Tdouble] *)
  flops : int;  (** arithmetic cost charged per call *)
}

val find : string -> t option
val is_builtin : string -> bool
