(** Watermark pieces as residue statements, and their integer encoding.

    A piece is the statement [W = x (mod p_i * p_j)] for a pair of base
    primes.  Step B of Figure 3 maps each statement injectively to an
    integer with the pair-enumeration scheme — every ordered pair [(i, j)]
    ([i < j]) owns a contiguous range of size [p_i * p_j] — and then
    encrypts that integer with the piece cipher. *)

type t = { i : int; j : int; x : int }
(** [W = x mod (primes.(i) * primes.(j))], with [0 <= i < j < r] and
    [0 <= x < primes.(i) * primes.(j)]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val modulus : Params.t -> t -> int
(** [primes.(i) * primes.(j)]. *)

val of_watermark : Params.t -> Bignum.t -> pair:int * int -> t
(** [of_watermark params w ~pair:(i, j)] is the true statement about [w]
    for that prime pair. Raises [Invalid_argument] on a bad pair or a
    watermark that does not fit. *)

val all_of_watermark : Params.t -> Bignum.t -> t list
(** All [r*(r-1)/2] true statements, in pair-enumeration order. *)

val to_congruence : Params.t -> t -> Numtheory.Gcrt.congruence

val enumerate : Params.t -> t -> int
(** The enumeration index (before encryption). *)

val unenumerate : Params.t -> int -> t option
(** Inverse of {!enumerate}; [None] when the value falls outside the total
    enumeration range (a garbage block). *)

val encode : Params.t -> t -> int
(** [encode params s] = cipher(enumerate s): the bit pattern the embedder
    must make appear in the trace bit-string. *)

val decode : Params.t -> int -> t option
(** [decode params block] decrypts and unenumerates a candidate cipher
    block from the trace.  Total: [None] for a negative block, one beyond
    [2^block_bits], or one whose plaintext lies past the enumeration
    range (most trace windows); only a hit allocates. *)

val bits : Params.t -> t -> bool list
(** The encoded piece as bits, least-significant first — exactly the branch
    pattern the inserted code must produce. *)

val consistent : Params.t -> t -> t -> bool
(** Whether the two statements can both hold of one watermark (they agree
    modulo every base prime they share; statements on the same pair must be
    identical). *)

val agreeing_prime : Params.t -> t -> t -> int option
(** [agreeing_prime params a b] is a prime index shared by [a] and [b] on
    which their residues agree — the adjacency criterion of the paper's
    graph [H] — if one exists. Distinct statements only; [None] for
    [equal a b]. *)
