type elem_ty = Eint | Edouble

type typ = Tvoid | Tint | Tdouble | Tarray of elem_ty

type unop = Neg | Not | Bit_not | Cast_int | Cast_double

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
  | Index of string * expr
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Ternary of expr * expr * expr
  | Call of string * expr list
  | Length of string

type lvalue = Lvar of string | Lindex of string * expr

type assign_op = Set | Add_set | Sub_set | Mul_set | Div_set

type redop = Rplus | Rmul | Rmax | Rmin

type subarray = {
  sub_array : string;
  sub_start : expr option;
  sub_len : expr option;
  sub_loc : Loc.t;
}

type data_kind = Copy | Copyin | Copyout | Create | Present

type localaccess_spec = { la_array : string; la_stride : expr; la_left : expr; la_right : expr }

type clause =
  | Cdata of data_kind * subarray list
  | Creduction of redop * string list
  | Cgang of int option
  | Cworker of int option
  | Cvector of int option
  | Clocalaccess of localaccess_spec list
  | Cindependent
  | Cif of expr

type directive =
  | Dparallel_loop of clause list
  | Ddata of clause list
  | Denter_data of clause list
  | Dexit_data of clause list
  | Dupdate_host of subarray list
  | Dupdate_device of subarray list
  | Dlocalaccess of localaccess_spec list
  | Dreduction_to_array of { rta_op : redop; rta_array : string }

type stmt = { sdesc : sdesc; sloc : Loc.t }

and sdesc =
  | Sdecl of typ * string * expr option
  | Sarray_decl of elem_ty * string * expr
  | Sassign of lvalue * assign_op * expr
  | Sincr of lvalue * int
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

type func = { fname : string; fret : typ; fparams : param list; fbody : stmt list; floc : Loc.t }

type program = { funcs : func list; source_name : string }

let find_func p name = List.find_opt (fun f -> f.fname = name) p.funcs

let redop_to_string = function Rplus -> "+" | Rmul -> "*" | Rmax -> "max" | Rmin -> "min"

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Land -> "&&" | Lor -> "||"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"

let typ_to_string = function
  | Tvoid -> "void"
  | Tint -> "int"
  | Tdouble -> "double"
  | Tarray Eint -> "int[]"
  | Tarray Edouble -> "double[]"

let elem_ty_size = function Eint -> 4 | Edouble -> 8
