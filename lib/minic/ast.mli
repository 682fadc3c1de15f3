(** Abstract syntax of the mini-C subset with OpenACC directives.

    Directive payloads (clauses, subarrays, localaccess windows) are part of
    the AST because their arguments are expressions evaluated in the host
    environment. The two extension directives proposed by the paper —
    [localaccess] and [reductiontoarray] — appear alongside the standard
    OpenACC ones. *)

type elem_ty = Eint | Edouble

type typ = Tvoid | Tint | Tdouble | Tarray of elem_ty

type unop =
  | Neg
  | Not
  | Bit_not
  | Cast_int  (** (int)e *)
  | Cast_double  (** (double)e *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | Land | Lor
  | Band | Bor | Bxor | Shl | Shr

type expr = { edesc : edesc; eloc : Loc.t }

and edesc =
  | Int_lit of int
  | Float_lit of float
  | Var of string
  | Index of string * expr  (** a\[e\] — arrays are one-dimensional *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Ternary of expr * expr * expr
  | Call of string * expr list  (** builtin math or user function *)
  | Length of string  (** __length(a): number of elements of array [a] *)

type lvalue = Lvar of string | Lindex of string * expr

type assign_op = Set | Add_set | Sub_set | Mul_set | Div_set

(** {1 Directives} *)

type redop = Rplus | Rmul | Rmax | Rmin

type subarray = {
  sub_array : string;
  sub_start : expr option;
  sub_len : expr option;
  sub_loc : Loc.t;  (** the array name inside the directive *)
}
(** OpenACC subarray [a\[start:len\]]; both bounds omitted means the whole
    array. *)

type data_kind = Copy | Copyin | Copyout | Create | Present

type localaccess_spec = {
  la_array : string;
  la_stride : expr;  (** elements consumed per iteration *)
  la_left : expr;  (** extra elements readable below the window *)
  la_right : expr;  (** extra elements readable above the window *)
}
(** Iteration [i] may read indices
    [la_stride*i - la_left .. la_stride*(i+1) - 1 + la_right] (paper
    §III-C). *)

type clause =
  | Cdata of data_kind * subarray list
  | Creduction of redop * string list  (** scalar reduction *)
  | Cgang of int option
  | Cworker of int option
  | Cvector of int option
  | Clocalaccess of localaccess_spec list
  | Cindependent
  | Cif of expr
      (** [if(cond)] on a parallel loop: offload only when the condition is
          non-zero at runtime, else execute on the host *)

type directive =
  | Dparallel_loop of clause list  (** [#pragma acc parallel loop ...] (or [kernels loop]) *)
  | Ddata of clause list  (** [#pragma acc data ...] *)
  | Denter_data of clause list
      (** [#pragma acc enter data ...]: executable, opens an unstructured
          data lifetime *)
  | Dexit_data of clause list  (** [#pragma acc exit data ...] *)
  | Dupdate_host of subarray list
  | Dupdate_device of subarray list
  | Dlocalaccess of localaccess_spec list
      (** standalone [#pragma acc localaccess(...)]; attaches to the
          parallel loop that follows *)
  | Dreduction_to_array of { rta_op : redop; rta_array : string }
      (** [#pragma acc reductiontoarray(op: a)]; annotates the next
          statement, whose destination index may be dynamic *)

(** {1 Statements and programs} *)

type stmt = { sdesc : sdesc; sloc : Loc.t }

and sdesc =
  | Sdecl of typ * string * expr option  (** scalar declaration *)
  | Sarray_decl of elem_ty * string * expr  (** [double a\[n\];] host allocation *)
  | Sassign of lvalue * assign_op * expr
  | Sincr of lvalue * int  (** [x++] / [x--] as a statement *)
  | Sexpr of expr
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sfor of for_header * stmt list
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sblock of stmt list
  | Spragma of directive * stmt

and for_header = { for_init : stmt option; for_cond : expr option; for_update : stmt option }

type param = { param_name : string; param_ty : typ }

type func = {
  fname : string;
  fret : typ;
  fparams : param list;
  fbody : stmt list;
  floc : Loc.t;
}

type program = { funcs : func list; source_name : string }

val find_func : program -> string -> func option
val redop_to_string : redop -> string
val binop_to_string : binop -> string
val typ_to_string : typ -> string
val elem_ty_size : elem_ty -> int
(** Bytes per element: 4 for int, 8 for double. *)
