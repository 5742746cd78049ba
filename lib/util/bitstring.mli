(** Growable bit-strings.

    The dynamic trace of a program is decoded into a bit-string (one bit per
    executed conditional branch, Section 3.1 of the paper); the recognizer
    then slides fixed-width windows over it.  This module provides the bit
    container shared by the tracer, the embedder and the recognizer. *)

type t
(** A mutable sequence of bits, indexed from 0. *)

val create : unit -> t
(** An empty bit-string. *)

val length : t -> int

val get : t -> int -> bool
(** [get t i] is bit [i]. Raises [Invalid_argument] if out of range. *)

val append : t -> bool -> unit
(** Append a single bit. *)

val append_int : t -> value:int -> width:int -> unit
(** [append_int t ~value ~width] appends the [width] low bits of [value],
    least-significant bit first. [0 <= width <= 62]. *)

val iter : (bool -> unit) -> t -> unit
(** [iter f t] applies [f] to every bit in index order. *)

val of_string : string -> t
(** [of_string "0110"] builds the bit-string 0,1,1,0 (index order). Raises
    [Invalid_argument] on characters other than ['0'] and ['1']. *)

val to_string : t -> string
(** Inverse of {!of_string}. *)

val of_bool_list : bool list -> t

val equal : t -> t -> bool

val concat : t -> t -> t
(** [concat a b] is a fresh bit-string holding [a]'s bits then [b]'s. *)

val sub : t -> pos:int -> len:int -> t
(** [sub t ~pos ~len] copies bits [pos .. pos+len-1]. *)

val window : t -> pos:int -> stride:int -> width:int -> int option
(** [window t ~pos ~stride ~width] reads bits [pos], [pos+stride], ...
    ([width] of them, least-significant first) and packs them into an int.
    Returns [None] when the window runs past the end. [width <= 62],
    [stride >= 1]. *)

val is_substring : needle:t -> haystack:t -> bool
(** [is_substring ~needle ~haystack] tests whether [needle] occurs
    contiguously in [haystack]. *)

val find_int : t -> width:int -> value:int -> stride:int -> int option
(** [find_int t ~width ~value ~stride] returns the first position [p] such
    that [window t ~pos:p ~stride ~width = Some value], if any. *)

val pp : Format.formatter -> t -> unit
