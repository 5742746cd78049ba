(** Trace capture and trace bit-string decoding (Section 3.1).

    The tracing phase runs the program on the secret input sequence and
    records, per executed conditional branch, which way it went, and on
    block entry the values of locals and globals (used by the condition
    code generator to synthesize predicates from existing variables).

    The {e bit-string of a trace} is decoded with the paper's rule: for
    each conditional branch, its first dynamic occurrence fixes a reference
    direction; every occurrence then contributes [0] when it goes the same
    way as the first occurrence and [1] otherwise.  This makes the
    bit-string invariant under code reordering, branch-sense inversion and
    insertion of non-branch instructions. *)

type branch_event = { fidx : int; pc : int; taken : bool }

type snapshot = { locals : int array; globals : int array }
(** Variable values on entry to a block visit (copies, safe to keep). *)

type t = {
  branches : branch_event array;  (** every conditional branch, in order *)
  events : Tracebuf.t;
      (** the same events, packed — the flat buffer they were captured
          into; decode and persistence paths read this, not the array *)
  visits : (int * int, snapshot list) Hashtbl.t;
      (** per block [(fidx, leader_pc)], the snapshots of its first visits
          in visit order (capped at {!max_snapshots_per_block}) *)
  block_counts : (int * int, int) Hashtbl.t;  (** execution frequency *)
  result : Interp.result;
}

val max_snapshots_per_block : int
(** 8 — the condition code generator only distinguishes early visits. *)

val capture : ?fuel:int -> ?want_snapshots:bool -> Program.t -> input:int list -> t
(** Run on {!Compile} with every branch event appended straight into the
    flat buffer.  [want_snapshots] (default [true]) controls whether block
    counts and variable values are recorded; recognition-only traces turn
    it off and leave [visits] and [block_counts] empty.  With snapshots
    the run uses a translation made with a {!Compile.block_hook} that
    counts block entries in per-function arrays and copies the frame's
    locals and the globals on a block's first {!max_snapshots_per_block}
    visits.  Its [visits], [block_counts], [hot_blocks] order and
    [result] are those of a capture through the reference interpreter's
    observer, so embedding yields the same bytes either way; the test
    suite keeps that capture as its oracle and holds the two equal. *)

val bitstring : t -> Util.Bitstring.t
(** Decode the trace into its bit-string (straight off the packed buffer —
    no intermediate event list). *)

val bits_of_branches : branch_event list -> Util.Bitstring.t
(** The same decoding over a raw event list. *)

val bits_of_buf : Tracebuf.t -> Util.Bitstring.t
(** The same decoding over a packed buffer. *)

val branches_of_buf : Tracebuf.t -> branch_event array
(** Materialize packed events as records. *)

val buf_of_branches : branch_event list -> Tracebuf.t
(** Pack an event list into a fresh buffer. *)

(** Incremental trace-bit decoder — the streaming recognizer's front end.
    Feeding it the packed events of a trace, in order, yields exactly the
    bits of {!bitstring}: the first occurrence of a branch site decodes to
    [false] and fixes the site's reference direction; every later
    occurrence decodes to whether it deviates. *)
module Decoder : sig
  type t

  val create : unit -> t

  val push : t -> int -> bool
  (** Decode one packed event into its trace bit. *)
end

val save_events : Tracebuf.t -> string
(** Serialize a packed event buffer in the {!save} format. *)

val hot_blocks : t -> ((int * int) * int) list
(** Blocks sorted by descending execution count. *)

val save : t -> string
(** Serialize the branch-event trace (the paper's tracing phase "writes to
    a file the sequence of basic blocks" — we persist the branch events the
    recognizer needs).  Snapshots and counts are not saved. *)

val load_branches : string -> branch_event list
(** Read back the events of {!save}.  Total: malformed data yields the
    longest cleanly-decoded event prefix (see {!salvage_branches}) —
    partial evidence is still evidence to the redundant recognizer. *)

val salvage_branches : string -> branch_event list * string option
(** [load_branches] plus a diagnostic: [None] when the bytes decoded
    cleanly end to end, otherwise a description of what was wrong (bad
    magic, truncation point, trailing garbage) alongside the salvaged
    prefix. *)
