(** Watermark recombination — the decoding algorithm of Section 3.3.

    The recognizer harvests candidate cipher blocks from the trace
    bit-string (most are garbage), decodes each into a residue statement,
    and then:

    + {b votes} on [W mod p_i] for every base prime, discarding statements
      that contradict any clear winner (first place strictly more than twice
      second place);
    + builds the {b inconsistency graph} [G] (statements that cannot hold of
      one watermark) and the {b agreement graph} [H] (statements that agree
      modulo a shared prime) over the survivors;
    + {b greedily} presumes true a maximum-[H]-degree vertex and deletes its
      [G]-neighbours, until [G] has no edges;
    + recombines the surviving statements with the {b Generalized CRT}.

    Recovery succeeds when the survivors cover every base prime. *)

type report = {
  candidates : int;  (** harvested statements, counted with multiplicity *)
  distinct : int;  (** distinct statements before voting *)
  after_vote : int;  (** distinct statements surviving the vote filter *)
  dropped_by_greedy : int;  (** statements deleted by the graph phase *)
  used : Statement.t list;  (** statements passed to the Generalized CRT *)
  covered : bool;  (** every base prime mentioned by some used statement *)
  value : Bignum.t option;  (** the recovered watermark, when successful *)
}

val recover : ?cap:int -> ?vote_cap:int -> Params.t -> Statement.t list -> report
(** [recover params statements] runs the full §3.3 pipeline on harvested
    statements (with multiplicity).  [cap] (default 3000) bounds the number
    of distinct statements entering the quadratic graph phase; when
    exceeded, statements of highest multiplicity are preferred. *)

val recover_value : ?cap:int -> ?vote_cap:int -> Params.t -> Statement.t list -> Bignum.t option
(** Just the recovered watermark. *)

type margin = {
  pieces_used : int;  (** statements handed to the Generalized CRT *)
  primes_covered : int;  (** base primes mentioned by some used statement *)
  primes_total : int;
  redundancy_margin : int;
      (** how many more used statements the recovery could lose: the
          least-supported base prime's support minus one (0 unless the
          watermark was actually recovered) *)
}

val margin_of_report : Params.t -> report -> margin
(** Degraded-mode accounting over a {!recover} report: what was
    recovered, how much of the prime base it covers, and how far the
    recovery sits from the coverage cliff. *)

val confidence : Params.t -> report -> float
(** A score in [0, 1].  Recovered watermarks score in [0.5, 1), growing
    with {!margin.redundancy_margin} (each extra statement of support on
    the weakest prime halves the remaining doubt); unrecovered reports
    score in [0, 0.45] by coverage × consistency, so any recovery
    outranks any partial. *)

val harvest :
  ?dedup_overlaps:bool -> Params.t -> Util.Bitstring.t -> strides:int list -> Statement.t list
(** Slide a [block_bits]-wide window over every position of the trace
    bit-string at each given stride, decrypt, and keep the windows that
    decode to valid statements: a {!Harvester} folded over the bits.
    [dedup_overlaps] (default [true]) counts overlapping occurrences of one
    statement once — constant-bit runs from hot loops otherwise inflate its
    vote multiplicity (see DESIGN.md). *)

val recover_from_bitstring :
  ?cap:int ->
  ?vote_cap:int ->
  ?dedup_overlaps:bool ->
  ?strides:int list ->
  Params.t ->
  Util.Bitstring.t ->
  report
(** [harvest] + [recover]. [strides] defaults to [\[1; 2\]]: stride 1 for
    condition-generated pieces, stride 2 for loop-generated pieces whose
    payload bits interleave with the loop-control branch (see DESIGN.md). *)
