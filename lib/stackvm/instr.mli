(** The bytecode instruction set of the stack virtual machine.

    This VM plays the role Java bytecode plays in Section 3 of the paper: a
    verifiable stack machine with structured functions, locals, globals and
    conditional branches whose dynamic behaviour the watermark lives in.
    Values are native integers; arrays live on a heap and are referred to by
    integer handles. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** truncated; division by zero is a runtime error *)
  | Rem
  | And
  | Or
  | Xor
  | Shl  (** shift counts are masked to 0..62 *)
  | Shr  (** arithmetic shift *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Const of int  (** push a constant *)
  | Load of int  (** push local slot (arguments occupy the first slots) *)
  | Store of int  (** pop into local slot *)
  | Get_global of int  (** push global cell *)
  | Set_global of int  (** pop into global cell *)
  | Binop of binop  (** pop b, pop a, push [a op b] *)
  | Neg
  | Not  (** logical negation: push 1 if zero, else 0 *)
  | Cmp of cmp  (** pop b, pop a, push [a cmp b] as 0/1 *)
  | Dup
  | Pop
  | Swap
  | New_array  (** pop length, push fresh zero-filled array handle *)
  | Array_load  (** pop index, pop handle, push element *)
  | Array_store  (** pop value, pop index, pop handle *)
  | Array_len  (** pop handle, push length *)
  | Jump of int  (** unconditional, target is an instruction index *)
  | If of { sense : bool; target : int }
      (** pop v; branch to [target] iff [(v <> 0) = sense]. The only
          conditional branch of the ISA — the instruction whose dynamic
          behaviour carries the watermark. *)
  | Call of string  (** pop callee's arguments (last on top), push result *)
  | Ret  (** pop result, return to caller *)
  | Print  (** pop, append to the output stream *)
  | Read  (** push the next value of the input sequence *)
  | Nop

val stack_delta : t -> int option
(** Net change in operand-stack depth, or [None] for [Call] (depends on the
    callee's arity) and [Ret]. *)

val is_branch : t -> bool
(** True for [If _] — the instructions that contribute trace bits. *)

val targets : t -> int list
(** Static successors other than fall-through ([Jump]/[If] targets). *)

val falls_through : t -> bool
(** Whether control can continue to the next instruction ([Jump] and [Ret]
    cannot). *)

val relocate : t -> f:(int -> int) -> t
(** Rewrite branch targets with [f]; other instructions unchanged. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
