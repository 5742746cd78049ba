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

val embed :
  ?seed:int64 ->
  ?fuel:int ->
  ?trace:Stackvm.Trace.t ->
  ?stealth:bool ->
  spec ->
  Stackvm.Program.t ->
  report
(** Embed per [spec].  Raises [Invalid_argument] when the watermark does
    not fit the derived parameters, and [Failure] when the program has no
    traced insertion sites (it must execute at least one basic block on the
    secret input).  The result verifies ({!Stackvm.Verify.check}) and is
    semantically equivalent to the input program.

    Cost per fingerprint: each function's snippets go in with one
    {!Stackvm.Rewrite.insert_many}, and the whole marked program is
    verified before it is returned.  Verifying only the rewritten
    functions would save little: at 20 pieces they hold 94% of the
    instructions of the VM workloads on average, all of them on some.

    [stealth] (default false) hardens the sink-update guards against
    static analysis: each candidate guard predicate is evaluated with
    {!Analysis.Vmconst} and rejected if it folds to a constant — the
    classic opaque shapes all fold under residue reasoning — falling back
    to trace-derived comparisons over live host state, which a sound
    constant folder must leave undecided.  Under [stealth] the analyzer
    ({!Analysis.Vmlint}) reports strictly fewer opaque-branch diagnostics
    on the watermarked program.

    [trace], when given, must be a snapshot-bearing
    ({!Stackvm.Trace.capture} with [~want_snapshots:true]) trace of
    {e this} program on [spec.input]; embedding then skips its own tracing
    run.  The batch engine uses this to share one content-addressed trace
    across many fingerprints of the same host program. *)
