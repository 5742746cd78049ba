(** Binary serialization of programs.

    Figure 8(b) of the paper measures watermark cost in {e bytes of
    bytecode}; this compact binary format (opcode byte + LEB128 varint
    operands) is our size metric, and round-trips exactly. *)

val encode : Program.t -> string
(** Serialize to bytes. *)

val decode : string -> Program.t
(** Inverse of {!encode}. Raises [Failure] on malformed input (and only
    [Failure]: declared lengths are validated against the bytes that
    remain before any allocation), bytes after the last field included
    (["Serialize.decode: trailing bytes"]). *)

val decode_opt : string -> Program.t option
(** Total decoding: [None] on malformed input — corrupt artifacts are a
    typed outcome, never a crash. *)

val size_in_bytes : Program.t -> int
(** [String.length (encode p)], counted without building the encoding. *)
