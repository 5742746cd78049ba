(** JSON string literals for the hand-rolled writers (no JSON library in
    the toolchain). *)

val escape : string -> string
(** The body of a JSON string literal: quote, backslash, newline,
    carriage return and tab get their short escapes, other control
    characters [\uXXXX]. *)

val str : string -> string
(** [escape], wrapped in double quotes. *)
