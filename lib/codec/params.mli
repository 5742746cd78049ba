(** Watermark codec parameters.

    Everything the embedder and the (blind) recognizer must agree on is
    derived deterministically from the watermark {e key} — a passphrase —
    so that recognition needs only the watermarked program and the key:
    the pairwise relatively prime base moduli [p_1 < ... < p_r], and the
    block cipher applied to encoded pieces. *)

type t = private {
  primes : int array;  (** sorted, pairwise distinct primes *)
  cipher : Crypto.Feistel.t;
  block_bits : int;  (** width of an encoded piece, [= Feistel.block_bits cipher] *)
  pair_offsets : int array;
      (** the pair-enumeration table: entry [k] starts the range of the
          [k]-th prime pair in lexicographic order [(0,1), (0,2), ...],
          which holds [p_i * p_j] values; one extra last entry is
          [enumeration_total] *)
  enumeration_total : int;  (** number of valid enumeration indices *)
}

val make : ?prime_bits:int -> ?block_bits:int -> passphrase:string -> watermark_bits:int -> unit -> t
(** [make ~passphrase ~watermark_bits ()] chooses the smallest number [r] of
    [prime_bits]-bit primes (default 25) such that any watermark below
    [2^watermark_bits] is below the product of the primes, then draws the
    primes and the cipher key from the passphrase.  Raises
    [Invalid_argument] when the enumeration range of all [r*(r-1)/2] residue
    statements would not fit in a [block_bits]-bit cipher block. *)

val r : t -> int
(** Number of base primes. *)

val pair_count : t -> int
(** Number of distinct pieces, [r*(r-1)/2]. *)

val capacity : t -> Bignum.t
(** Product of the primes: watermarks must be strictly below this. *)

val max_watermark_bits : t -> int
(** Largest [n] with [2^n <= capacity], i.e. any n-bit watermark fits. *)

val fits : t -> Bignum.t -> bool
(** Whether a watermark value is representable (nonnegative and below
    {!capacity}). *)
