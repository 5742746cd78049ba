(** Name-keyed registry of watermarking schemes.

    Mirrors SNIPPETS.md Snippet 2's dispatch-by-strategy service: schemes
    register themselves under a unique name; the CLI, the service layer and
    the batch engine resolve schemes by name at the last moment.  The table
    is guarded by a mutex so a threaded service can resolve concurrently
    with registration at startup. *)

exception Duplicate of string
(** Raised by {!register} when the name is already taken. *)

exception Unknown of string
(** Raised by {!Builtin.find_exn} on a name that resolves to no scheme;
    carries the name. *)

val register : (module Watermarker.WATERMARKER) -> unit
(** Raises {!Duplicate} if a scheme with the same name is registered, and
    [Invalid_argument] on an empty name or a name containing ['+'] (reserved
    for composition, see {!Compose}). *)

val find : string -> (module Watermarker.WATERMARKER) option

val names : unit -> string list
(** Registered names, sorted. *)

val all : unit -> (module Watermarker.WATERMARKER) list
(** All registered schemes, sorted by name. *)
