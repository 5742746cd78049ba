(** The embedding phase for stack-VM programs (Section 3.2).

    Pipeline: trace the program on the secret input (the watermark key),
    split the watermark into encrypted CRT pieces, and insert piece-
    generating code — loop or condition snippets — at traced block leaders
    chosen at random with probability inversely proportional to their
    execution frequency, so hot code is avoided. *)

type spec = {
  passphrase : string;  (** secret: derives primes and cipher *)
  watermark : Bignum.t;  (** the fingerprint value to embed *)
  watermark_bits : int;  (** capacity to provision (e.g. 128, 256, 512) *)
  pieces : int;  (** number of redundant pieces to insert *)
  input : int list;  (** the secret input sequence *)
}

type generator_kind = Loop | Condition_existing | Condition_counter

type insertion = { fidx : int; pc : int; kind : generator_kind; snippet_len : int }

type report = {
  program : Stackvm.Program.t;  (** the watermarked program *)
  insertions : insertion list;
  params : Codec.Params.t;
  bytes_before : int;
  bytes_after : int;
}

type prepared
(** A host made ready for any number of fingerprints: everything
    embedding derives from the host alone.  Shareable across domains. *)

val prepare : ?fuel:int -> ?trace:Stackvm.Trace.t -> input:int list -> Stackvm.Program.t -> prepared
(** The per-host stage.  Captures the snapshot trace of the program on
    [input] under [fuel] ({!Stackvm.Trace.capture} with
    [~want_snapshots:true]), or takes [trace], which must be such a trace
    of {e this} program on [input].  From it: the hot sites with their
    weights and the host's byte size.  Each function's definitely-assigned
    sets ({!Stackvm.Verify.assigned}), each site's condition material and
    the {!Codec.Params} of each (passphrase, width) are computed on first
    use and kept, under the host's own lock, so a one-shot {!embed} pays
    only for the functions its pieces land in.  Raises [Failure] when the
    program traps or runs out of fuel on [input], or executes no basic
    block there. *)

val embed_prepared : ?seed:int64 -> ?stealth:bool -> prepared -> spec -> report
(** The per-fingerprint stage: select the pieces of [spec.watermark],
    plan a snippet for each at a weighted hot site, rewrite the host and
    verify the whole marked program.  [spec.input] must be the input the
    host was prepared on ([Invalid_argument] otherwise); a watermark that
    does not fit the derived parameters raises [Invalid_argument].  Safe
    to call from several domains at once on one prepared host; the result
    depends only on the host, [seed], [stealth] and [spec]. *)

val embed :
  ?seed:int64 ->
  ?fuel:int ->
  ?trace:Stackvm.Trace.t ->
  ?stealth:bool ->
  spec ->
  Stackvm.Program.t ->
  report
(** Embed per [spec]: {!prepare} on [spec.input], then {!embed_prepared},
    byte for byte.  Raises [Invalid_argument] when the watermark does not
    fit the derived parameters (checked before the host is traced), and
    [Failure] when the program has no traced insertion sites (it must
    execute at least one basic block on the secret input).  The result
    verifies ({!Stackvm.Verify.check}) and is semantically equivalent to
    the input program.

    Cost per fingerprint: each function's snippets go in with one
    {!Stackvm.Rewrite.insert_many}, and the whole marked program is
    verified before it is returned.  Verifying only the rewritten
    functions would save little: at 20 pieces they hold 94% of the
    instructions of the VM workloads on average, all of them on some.
    A fleet of fingerprints into one host prepares it once and pays per
    fingerprint only for piece selection, planning, rewriting and
    verification.

    [stealth] (default false) hardens the sink-update guards against
    static analysis: each candidate guard predicate is evaluated with
    {!Analysis.Vmconst} and rejected if it folds to a constant — the
    classic opaque shapes all fold under residue reasoning — falling back
    to trace-derived comparisons over live host state, which a sound
    constant folder must leave undecided.  Under [stealth] the analyzer
    ({!Analysis.Vmlint}) reports strictly fewer opaque-branch diagnostics
    on the watermarked program.

    [trace], when given, is passed to {!prepare}: embedding then skips its
    own tracing run. *)
