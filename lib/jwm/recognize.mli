(** The recognition phase (Section 3.3) — dynamic, blind fingerprinting.

    Recognition re-runs the (possibly attacked) program on the secret
    input, decodes the trace into its bit-string, harvests candidate cipher
    blocks at strides 1 and 2, and recombines the watermark.  Only the
    program, the passphrase and the secret input are needed — never the
    original program or the expected watermark.

    Recognition is {e total} and degrades gracefully: corrupt programs,
    trapped runs and noisy traces yield a {!partial} account of what the
    CRT redundancy still recovered — pieces, prime coverage, the margin to
    the coverage cliff, a confidence score — never an exception. *)

type partial = {
  pieces_recovered : int;  (** residue statements the recombiner kept *)
  primes_covered : int;  (** base primes those statements mention *)
  primes_total : int;
  redundancy_margin : int;
      (** statements the weakest-supported prime could still lose (see
          {!Codec.Recombine.margin}); 0 unless [value] is [Some] *)
  confidence : float;  (** {!Codec.Recombine.confidence} of the report *)
}

type outcome = {
  value : Bignum.t option;  (** the recovered fingerprint, if any *)
  report : Codec.Recombine.report;
  partial : partial;  (** degraded-mode account, meaningful either way *)
  trace_branches : int;  (** dynamic conditional-branch count *)
  steps : int;  (** instructions executed during the recognition run *)
  diagnostic : string option;
      (** why the trace is empty, when recognition could not even run *)
}

val recognize :
  ?fuel:int ->
  ?strides:int list ->
  passphrase:string ->
  watermark_bits:int ->
  input:int list ->
  Stackvm.Program.t ->
  outcome
(** [fuel] defaults to 200 million instructions; a program that traps or
    exhausts fuel still yields whatever trace prefix was collected (an
    attacked program that crashes can destroy the mark — that is a valid
    experimental outcome, not an exception).

    One pass: the program is compiled once and run under
    {!Stackvm.Compile.run_streaming}, each packed branch event decoded
    into its trace bit and harvested as it happens — no event buffer, no
    bit-string.  This is {!recognize_streaming} with the probe disabled.
    The [harvest] test suite holds the outcome — report, branch count,
    steps, confidence — to the materialized chain ({!Stackvm.Trace.record},
    {!Stackvm.Trace.bits_of_buf}, {!Codec.Recombine.harvest},
    {!Codec.Recombine.recover}) on every corpus workload, marked and
    unmarked, and the [compile] suite to recovery over the reference
    interpreter's trace. *)

val recognize_buf :
  ?strides:int list ->
  passphrase:string ->
  watermark_bits:int ->
  Stackvm.Tracebuf.t ->
  outcome
(** Recognition over an already-captured (possibly salvaged or
    fault-injected) packed event buffer — the offline path used by saved
    traces and the fault-injection experiments.  The buffer is folded
    through the same decoder and harvester as {!recognize}.  [steps] is
    0. *)

val recognizes :
  ?fuel:int ->
  passphrase:string ->
  watermark_bits:int ->
  input:int list ->
  expected:Bignum.t ->
  Stackvm.Program.t ->
  bool
(** Fingerprint check: recovered value equals [expected]. *)

(** {2 Streaming recognition}

    The push-based mode under every entry point: branch events are folded,
    one at a time, through the incremental trace-bit decoder into the
    {!Codec.Harvester} that batch harvest uses, yielding CRT residue
    statements.  A periodic recombination probe declares the mark
    recovered as soon as its redundancy margin clears the confidence
    target, so a decided run can stop early; without the probe the stream
    is batch recognition. *)

type stream

val stream_start :
  ?strides:int list ->
  ?confidence_target:float ->
  ?check_every:int ->
  passphrase:string ->
  watermark_bits:int ->
  unit ->
  stream
(** [strides] defaults to [[1; 2]] (the batch recognizer's).
    [confidence_target] (default [0.9]) is the {!Codec.Recombine.confidence}
    a probed recovery must reach to decide; pass a value above [1.0] to
    never decide early.  [check_every] (default [4096]) is the probe
    period in events; [0] disables probing entirely, in which case
    {!stream_finish} is exactly batch recognition over the pushed events
    (same statements, same order — a qcheck property holds it to that). *)

val stream_push : stream -> int -> bool
(** Feed one packed branch event ({!Stackvm.Tracebuf.pack}).  Returns
    [true] once the stream has decided — the caller should stop feeding
    (further pushes are ignored). *)

val stream_finish : stream -> outcome
(** The recognition outcome over everything pushed so far (the decided
    report if the stream decided, a full recombination otherwise).
    [steps] is 0 — the stream never ran the program. *)

val recognize_streaming :
  ?fuel:int ->
  ?strides:int list ->
  ?confidence_target:float ->
  ?check_every:int ->
  passphrase:string ->
  watermark_bits:int ->
  input:int list ->
  Stackvm.Program.t ->
  outcome * [ `Completed | `Stopped_early ]
(** Run the program under {!Stackvm.Compile.run_streaming}, feeding each
    branch event to a fresh stream; the run halts as soon as the stream
    decides.  [`Stopped_early] reports that the early exit fired (the
    outcome's [steps] still counts the instructions actually executed). *)
