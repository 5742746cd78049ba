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
(** One branch event as a record.  Kept only for the benchmark's gwm chain,
    which reads {!t.branches}, until the benchmark moves to the packed
    buffer; everything else reads {!Tracebuf} events. *)

type snapshot = { locals : int array; globals : int array }
(** Variable values on entry to a block visit (copies, safe to keep). *)

type t = {
  branches : branch_event array;
      (** the events of [events] as records, filled only without
          snapshots ([~want_snapshots:false]) and empty otherwise.  Kept
          only for the benchmark, which still reads it; deleted once the
          benchmark reads [events] *)
  events : Tracebuf.t;
      (** every conditional branch, in order, packed — the flat buffer the
          run appended them to — filled only without snapshots and empty
          otherwise: embedding reads counts and snapshots, never branch
          directions.  A caller that wants both runs {!record} too *)
  visits : (int * int, snapshot list) Hashtbl.t;
      (** per block [(fidx, leader_pc)], the snapshots of its first visits
          in visit order (capped at {!max_snapshots_per_block}) *)
  block_counts : (int * int, int) Hashtbl.t;  (** execution frequency *)
  result : Interp.result;
}

val max_snapshots_per_block : int
(** 8 — the condition code generator only distinguishes early visits. *)

val record : ?fuel:int -> Program.t -> input:int list -> Tracebuf.t * Interp.result
(** Run on {!Compile} with every branch event appended into a fresh
    buffer, pre-sized for real traces: the capture saved traces, fault
    plans and the batch engine's cached recognition trace use.  jwm and gwm
    recognition record nothing: each event goes into the scheme's sink as
    it happens.  [fuel] is {!Compile.run}'s.  Exceptions from translating
    or running a broken program propagate. *)

val capture : ?fuel:int -> ?want_snapshots:bool -> Program.t -> input:int list -> t
(** Run on {!Compile}.  [want_snapshots] (default [true]) chooses between
    the two captures.  Without snapshots the capture is {!record}, with
    [visits] and [block_counts] empty and [events] also unpacked into
    [branches] for the benchmark.  With snapshots — embedding's capture —
    the run uses a translation made with a {!Compile.block_hook} that
    counts block entries in per-function arrays and copies the frame's
    locals and the globals on a block's first {!max_snapshots_per_block}
    visits, and records no branch events: [events] and [branches] are
    empty.  Embedding never reads which way a branch went, and appending
    the events cost about a fifth of the capture (gzip: 254 k events).
    Its [visits], [block_counts], [hot_blocks] order and [result] are
    those of a capture through the reference interpreter's observer, so
    embedding yields the same bytes either way; the test suite keeps that
    capture as its oracle and holds the two equal. *)

val bits_of_buf : Tracebuf.t -> Util.Bitstring.t
(** Decode a packed event buffer into its bit-string, straight off the
    buffer with no intermediate event list. *)

val branches_of_buf : Tracebuf.t -> branch_event array
(** Materialize packed events as records (fills {!t.branches}).  Kept only
    for the benchmark until it reads the packed buffer. *)

val buf_of_branches : branch_event list -> Tracebuf.t
(** Pack an event list into a fresh buffer. *)

(** The branch sites of a trace, numbered in order of first occurrence:
    a flat open-addressed table keyed on the packed site, each slot
    holding its site's first event.  The trace-bit {!Decoder} and gwm's
    per-site streams both key on it. *)
module Sites : sig
  type t

  val create : unit -> t

  val id : t -> int -> int
  (** The id of a packed event's site: [0, 1, 2, ...] in order of first
      occurrence, assigned on the first. *)

  val count : t -> int
  (** Distinct sites seen so far. *)
end

(** Incremental trace-bit decoder — the front end of jwm recognition.
    Feeding it the packed events of a trace, in order, yields exactly the
    bits of {!bits_of_buf}: the first occurrence of a branch site decodes to
    [false] and fixes the site's reference direction; every later
    occurrence decodes to whether it deviates. *)
module Decoder : sig
  type t

  val create : unit -> t

  val push : t -> int -> bool
  (** Decode one packed event into its trace bit. *)
end

val hot_blocks : t -> ((int * int) * int) list
(** Blocks sorted by descending execution count. *)

val save_events : Tracebuf.t -> string
(** Serialize a packed event buffer: ["TRC1"], the event count, then each
    event's function index, pc and direction, all as LEB128 varints (the
    paper's tracing phase "writes to a file the sequence of basic blocks" —
    we persist the branch events the recognizer needs).  Snapshots and
    counts are not saved. *)

val load_events : string -> Tracebuf.t
(** Read back the events of {!save_events}.  Total: malformed data yields
    the longest cleanly-decoded event prefix (see {!salvage_events}) —
    partial evidence is still evidence to the redundant recognizer. *)

val salvage_events : string -> Tracebuf.t * string option
(** [load_events] plus a diagnostic: [None] when the bytes decoded
    cleanly end to end, otherwise a description of what was wrong (bad
    magic, truncation point, trailing garbage) alongside the salvaged
    prefix.  The event count in the header is not trusted: the buffer
    grows as events decode, so a header claiming billions of events over
    a few bytes allocates only what those bytes hold. *)
