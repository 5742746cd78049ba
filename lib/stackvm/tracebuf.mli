(** Flat, growable buffer of packed branch events.

    The zero-allocation tracing substrate shared by the interpreter
    observer and the compiled engine: each conditional-branch outcome is
    packed into a single immediate [int] (taken flag in bit 0, pc in bits
    1-31, function index in bits 32-62) and appended to a preallocated,
    doubling [int array].  Recording an event is a bounds check, a store
    and an increment — no per-event boxing, no list cells.

    Events with [fidx] or [pc] outside 31 bits are masked; real programs
    never get near the limit. *)

type t

val pack : fidx:int -> pc:int -> taken:bool -> int
(** Pack one event into an immediate int. *)

val fidx : int -> int
(** Function index of a packed event. *)

val pc : int -> int
(** Program counter of a packed event. *)

val taken : int -> bool
(** Branch direction of a packed event. *)

val site : int -> int
(** The branch site — the packed event with its direction bit dropped.
    Two events compare equal under [site] iff they are the same static
    branch, which is exactly the key the trace bit-string decoder needs. *)

val flip : int -> int
(** The same event with its direction inverted (used by fault injection). *)

val create : ?capacity:int -> unit -> t
(** An empty buffer ([capacity] defaults to 1024 events). *)

val length : t -> int

val clear : t -> unit
(** Reset to empty without releasing storage (buffers are reusable across
    runs of a batch). *)

val add : t -> fidx:int -> pc:int -> taken:bool -> unit

val add_packed : t -> int -> unit
(** Append an already-packed event — the compiled engine's fast path,
    where the [If] closure packs at compile time. *)

val get : t -> int -> int
(** Packed event at an index. *)

val set : t -> int -> int -> unit
(** Overwrite an event in place (fault injection flips). *)

val truncate : t -> int -> unit
(** Keep only the first [n] events (no-op when already shorter). *)

val iter : (int -> unit) -> t -> unit

val iteri : (int -> int -> unit) -> t -> unit

val to_packed_list : t -> int list

val of_packed_list : int list -> t
