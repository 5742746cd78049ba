type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Const of int
  | Load of int
  | Store of int
  | Get_global of int
  | Set_global of int
  | Binop of binop
  | Neg
  | Not
  | Cmp of cmp
  | Dup
  | Pop
  | Swap
  | New_array
  | Array_load
  | Array_store
  | Array_len
  | Jump of int
  | If of { sense : bool; target : int }
  | Call of string
  | Ret
  | Print
  | Read
  | Nop

let stack_delta = function
  | Const _ | Load _ | Get_global _ | Dup | Read -> Some 1
  | Store _ | Set_global _ | Binop _ | Cmp _ | Pop | Print | If _ -> Some (-1)
  | Neg | Not | Swap | New_array | Array_len | Jump _ | Nop -> Some 0
  | Array_load -> Some (-1)
  | Array_store -> Some (-3)
  | Call _ | Ret -> None

let is_branch = function If _ -> true | _ -> false

let targets = function Jump t -> [ t ] | If { target; _ } -> [ target ] | _ -> []

let falls_through = function Jump _ | Ret -> false | _ -> true

let relocate t ~f =
  match t with
  | Jump target -> Jump (f target)
  | If { sense; target } -> If { sense; target = f target }
  | other -> other

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let cmp_name = function Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let pp fmt = function
  | Const n -> Format.fprintf fmt "const %d" n
  | Load n -> Format.fprintf fmt "load %d" n
  | Store n -> Format.fprintf fmt "store %d" n
  | Get_global n -> Format.fprintf fmt "getglobal %d" n
  | Set_global n -> Format.fprintf fmt "setglobal %d" n
  | Binop op -> Format.pp_print_string fmt (binop_name op)
  | Neg -> Format.pp_print_string fmt "neg"
  | Not -> Format.pp_print_string fmt "not"
  | Cmp c -> Format.fprintf fmt "cmp.%s" (cmp_name c)
  | Dup -> Format.pp_print_string fmt "dup"
  | Pop -> Format.pp_print_string fmt "pop"
  | Swap -> Format.pp_print_string fmt "swap"
  | New_array -> Format.pp_print_string fmt "newarray"
  | Array_load -> Format.pp_print_string fmt "aload"
  | Array_store -> Format.pp_print_string fmt "astore"
  | Array_len -> Format.pp_print_string fmt "alen"
  | Jump t -> Format.fprintf fmt "jump %d" t
  | If { sense; target } -> Format.fprintf fmt "if%s %d" (if sense then "nz" else "z") target
  | Call f -> Format.fprintf fmt "call %s" f
  | Ret -> Format.pp_print_string fmt "ret"
  | Print -> Format.pp_print_string fmt "print"
  | Read -> Format.pp_print_string fmt "read"
  | Nop -> Format.pp_print_string fmt "nop"

let to_string t = Format.asprintf "%a" pp t
