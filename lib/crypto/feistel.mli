(** The block cipher applied to watermark pieces.

    Step B of the embedding (Figure 3 in the paper) pushes every piece
    through a block cipher so that corrupted trace data decodes to values
    that look uniformly random, which is what the voting step of the
    recognizer relies on.  The paper uses 64-bit blocks; we default to
    62-bit blocks so a block fits an unboxed OCaml int (see DESIGN.md), and
    the construction is parametric in the (even) block width.

    The cipher is a balanced Feistel network with an XTEA-style round
    function, which is a bijection on [\[0, 2^block_bits)] for any round
    function — exactly the property the codec needs. *)

type t
(** An immutable cipher instance (key schedule + block width). *)

val default_block_bits : int
(** 62. *)

val create : ?rounds:int -> ?block_bits:int -> key:int64 -> unit -> t
(** [create ~key ()] builds a cipher from a 64-bit key seed (expanded into
    round keys with SplitMix64). [block_bits] must be even and in
    [\[4, 62\]]; default {!default_block_bits}. [rounds] defaults to 32.
    Raises [Invalid_argument] on bad parameters. *)

val of_passphrase : ?rounds:int -> ?block_bits:int -> string -> t
(** Derives the key seed from a passphrase (FNV-1a folding). The passphrase
    is part of the watermarking secret. *)

val block_bits : t -> int

val encrypt : t -> int -> int
(** [encrypt t v] for [0 <= v < 2^(block_bits t)]. Raises
    [Invalid_argument] when out of range. *)

val decrypt : t -> int -> int
(** Inverse of {!encrypt} on the block domain. *)

val decrypt_unchecked : t -> int -> int
(** {!decrypt} without the range check, for the recognizer's hot loop:
    the caller guarantees [0 <= v < 2^(block_bits t)] (a window rolled
    to [block_bits] bits is in range by construction).  Unspecified on
    other values. *)

val decrypt_many : t -> int array -> int array -> int -> unit
(** [decrypt_many t src dst n] sets [dst.(i)] to [decrypt_unchecked t
    src.(i)] for every [i < n] — the harvester's batch of memo misses.  It
    runs eight blocks per round loop, two to a machine word: a half-block
    has at most 31 bits, so two blocks' halves share a word at bits 0 and
    32, and the round function acts on both at once (the [n mod 8] left
    over run one at a time).  The same caller guarantee as
    {!decrypt_unchecked} holds for each block; [src] and [dst] may be the
    same array.  Raises [Invalid_argument] when [n] is negative or exceeds
    either array. *)
