(** The incremental harvester: the recognizer's inner loop (§3.3).

    Trace bits are pushed one at a time, and a push only appends the bit to
    a packed buffer, which grows as needed up to {!buffer_bits}.  A flush —
    a full buffer, or a read of {!count} or {!statements} — runs each
    stride in one pass over the buffered bits.  Every bit completes one
    [block_bits]-wide cipher-block window per stride, kept as a rolling
    value per [position mod stride] chain — one shift and one OR per bit.
    Each window is looked up in a memo of decrypted blocks; the misses are
    decrypted together, eight blocks per loop and two per machine word
    ({!Crypto.Feistel.decrypt_many}), and the windows that decode to a
    valid residue statement are kept in position order.  Chains, memo and
    overlap dedup carry across flushes, so where the flushes fall never
    changes the statements.  Only hits allocate.

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
(** Feed the next trace bit.  The push that finds the buffer holding
    {!buffer_bits} bits flushes it first. *)

val buffer_bits : int
(** The most bits the buffer holds between flushes: [2^16]. *)

val length : t -> int
(** Bits pushed so far. *)

val count : t -> int
(** Statements harvested so far, with multiplicity. *)

val statements : t -> Statement.t list
(** Everything harvested so far, in {!Recombine.harvest}'s order: the last
    stride's statements first, each stride's newest first. *)
