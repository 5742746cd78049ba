(** Programs of the stack VM: functions, entry point, global state. *)

type func = {
  name : string;
  nargs : int;  (** arguments occupy local slots [0 .. nargs-1] *)
  nlocals : int;  (** total local slots, including the arguments *)
  code : Instr.t array;
}

type t = {
  funcs : func array;
  nglobals : int;
  main : string;  (** entry function; must take 0 arguments *)
}

val func : name:string -> nargs:int -> nlocals:int -> Instr.t list -> func
(** Build a function; raises [Invalid_argument] if [nlocals < nargs]. *)

val make : ?nglobals:int -> ?main:string -> func list -> t
(** Build a program ([main] defaults to ["main"]). Function names must be
    distinct. *)

val find_func : t -> string -> func option
val func_index : t -> string -> int option

val block_starts : func -> bool array
(** [block_starts f] marks the leaders of basic blocks: instruction 0,
    every branch/jump target, and every instruction following a [Jump],
    [If] or [Ret]. *)

val replace_func : t -> func -> t
(** Replace the function of the same name. Raises [Not_found] if absent. *)

val add_func : t -> func -> t
(** Append a new function; raises [Invalid_argument] on duplicate name. *)

val with_globals : t -> int -> t
(** Grow the global-cell count to at least the given value. *)

val pp : Format.formatter -> t -> unit
(** Disassembly listing. *)
