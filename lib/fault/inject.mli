(** Deterministic application of {!Spec} corruption models.

    A {e plan} is a seed plus a list of fault specs.  Every injection
    point derives its own PRNG substream from [(plan.seed, salt)] — the
    salt is a stable identifier of the corruption site (a job digest, a
    workload name, a trial index) — so one plan corrupts the whole
    pipeline reproducibly: equal plans and salts produce byte-identical
    corruption no matter how work is scheduled.

    All functions are total and leave their input untouched when the plan
    carries no fault of the relevant family, so a disabled injection layer
    costs one list scan and nothing else. *)

type plan = { seed : int64; faults : Spec.t list }

val none : plan
(** The empty plan: injects nothing anywhere. *)

val make : ?seed:int64 -> Spec.t list -> plan
(** [seed] defaults to [1L]. *)

val is_empty : plan -> bool

val describe : plan -> string
(** ["none"] or a comma-separated spec list plus the seed. *)

val rate : plan -> (Spec.t -> float option) -> float
(** Sum of the rates selected by the projection (0 when absent). *)

val rng_for : plan -> salt:string -> Util.Prng.t
(** The substream for a corruption site. *)

val branches : plan -> salt:string -> Stackvm.Tracebuf.t -> Stackvm.Tracebuf.t * int
(** Apply the plan's trace faults (drop, duplicate, flip, truncate — in
    that order) to a packed event buffer.  Returns the corrupted events,
    in a fresh buffer, and the number of individual faults applied; the
    input buffer itself, untouched, when the plan carries no trace
    fault. *)

val artifact : plan -> salt:string -> string -> string * int
(** Apply byte/bit flips to serialized artifact bytes. *)

val cache_entry : plan -> salt:string -> string -> string * bool
(** Corrupt a cache entry as it is stored ([cache-corrupt]): with the
    configured probability, flip a few bytes and truncate the tail.  The
    boolean reports whether corruption fired. *)

val adjust_fuel : plan -> int option -> int option
(** Apply [fuel-cut]: scale a fuel budget (minimum 1).  [None] budgets
    stay unlimited. *)

val crash_decision : plan -> salt:string -> bool
(** Roll the [crash] fault for one job attempt. *)

val shard_crash : plan -> salt:string -> bool
(** Roll the [shard-crash] fault for one shard (salted by shard name, so
    a given plan always kills the same shards). *)

val journal_chunk : plan -> salt:string -> string -> string * bool
(** Apply [journal-trunc] to a shipped journal byte-range: with the
    configured probability the chunk is sheared at a random offset —
    usually mid-frame.  The boolean reports whether the tear fired. *)

val garble : plan -> salt:string -> (int -> int) option
(** The [obs-garble] observation corruptor: a stateful closure that
    garbles each observed value with the configured probability ([None]
    when the plan has no [obs-garble] fault, so the clean path stays
    allocation-free). *)
