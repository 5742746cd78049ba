(** The incremental harvester: the recognizer's inner loop (§3.3).

    Trace bits are pushed one at a time.  For each stride, every bit
    completes one [block_bits]-wide cipher-block window, kept as a rolling
    value per [position mod stride] chain — one shift and one OR per bit.
    Completed windows queue in a fixed chunk; a full chunk, or a read of
    {!count} or {!statements}, decrypts them (memo hits first, the misses
    four at a time) and keeps, in push order, those that decode to a valid
    residue statement.  Only hits allocate.

    {!Recombine.harvest} is this harvester folded over a whole bit-string,
    and streaming recognition feeds it live, so batch and streaming
    recognition share one code path. *)

type t

val create : ?dedup_overlaps:bool -> Params.t -> strides:int list -> t
(** A fresh harvester for the given strides (each [>= 1], else
    [Invalid_argument]).  [dedup_overlaps] (default [true]) counts
    overlapping windows that decode to the same statement once — see
    {!Recombine.harvest}. *)

val push : t -> bool -> unit
(** Feed the next trace bit. *)

val length : t -> int
(** Bits pushed so far. *)

val count : t -> int
(** Statements harvested so far, with multiplicity. *)

val statements : t -> Statement.t list
(** Everything harvested so far, in {!Recombine.harvest}'s order: the last
    stride's statements first, each stride's newest first. *)
