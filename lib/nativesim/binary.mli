(** Linked executable images. *)

type t = {
  text : string;  (** raw code bytes, loaded at {!Layout.text_base} *)
  data : string;  (** raw data bytes, loaded at {!Layout.data_base} *)
  entry : int;  (** initial program counter *)
  symbols : (string * int) list;  (** label -> absolute address, for tooling *)
}

val make : ?symbols:(string * int) list -> ?entry:int -> text:string -> data:string -> unit -> t
(** [entry] defaults to {!Layout.text_base}. Raises [Invalid_argument]
    when a section exceeds its capacity. *)

val symbol : t -> string -> int
(** Raises [Not_found]. *)

val text_end : t -> int
(** First address past the text section. *)

val size : t -> int
(** Total image size in bytes (text + data) — the size metric of
    Figure 9(a). *)

val encode : t -> string
(** Serialize the image (sections, entry, symbols) to a byte string. *)

val decode : string -> t
(** Inverse of {!encode}; raises [Failure] on malformed input, bytes
    after the last field included (["Binary.decode: trailing bytes"]). *)
