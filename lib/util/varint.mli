(** Unsigned LEB128 varints and length-prefixed strings: the one codec of
    the byte formats (program images, saved traces, cached batch outcomes,
    native binaries, service wire payloads and registry journal records).

    LEB128 writes seven bits per byte, low group first, with the top bit
    set on every byte but the last; every value has one encoding. *)

val add : Buffer.t -> int -> unit
(** Append a non-negative int as a varint. Raises [Invalid_argument] on a
    negative value. *)

val add_string : Buffer.t -> string -> unit
(** Append the string's length as a varint, then its bytes. *)

val size : int -> int
(** The number of bytes {!add} writes for a non-negative int. *)

(** {1 Reading} *)

exception Malformed of string
(** The reason a read failed: ["truncated"], ["truncated string"],
    ["varint overflow"] or ["negative varint"]. *)

type reader
(** A position in a string of untrusted bytes. *)

val reader : ?pos:int -> string -> reader
(** Read from [pos] (default 0). *)

val pos : reader -> int
(** The offset of the next unread byte. *)

val remaining : reader -> int
(** The number of unread bytes. *)

val byte : reader -> int
(** The next byte. Raises [Malformed "truncated"] past the end. *)

val varint : reader -> int
(** The next varint. Raises [Malformed] when the input ends inside it,
    when a tenth byte would be needed ("varint overflow") and when its
    value has bit 62 set, so is negative as an OCaml int ("negative
    varint"): every value decoded is in \[0, 2{^62}). *)

val string : reader -> string
(** A length-prefixed string. Its length is checked against
    {!remaining} before any allocation. *)
