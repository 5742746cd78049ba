(** Graph-watermark recognition — dynamic, blind.

    Re-run the program on the execution engine ({!Stackvm.Compile}), its
    conditional-branch events packed straight into a flat
    {!Stackvm.Tracebuf} (or replay an already-captured trace), split the
    events per static branch site, and search every per-site
    taken/not-taken stream — and its complement, so branch-sense inversion
    is survived — for the keyed sync word with one rolling window per
    stream.  Each match yields a candidate window; windows
    that decode (digit ranges, checksum) vote on the value, and when no
    window decodes cleanly a per-bit majority over the aligned windows is
    tried as a degraded fallback.  Only the passphrase, the capacity and
    the input are needed: recognition is blind and total. *)

type outcome = {
  value : Bignum.t option;  (** the recovered fingerprint, if any *)
  confidence : float;  (** in [0,1]; agreement among candidate windows *)
  copies_found : int;  (** windows that decoded cleanly to the value *)
  candidates : int;  (** sync-word matches examined *)
  trace_branches : int;  (** dynamic conditional-branch count *)
  steps : int;  (** instructions executed (0 for offline replay) *)
  diagnostic : string option;
}

val recognize :
  ?fuel:int ->
  passphrase:string ->
  watermark_bits:int ->
  input:int list ->
  Stackvm.Program.t ->
  outcome
(** Runs the program on [input] (default fuel 200 million steps) under
    the compiled tracer and decodes the packed trace with {!recognize_buf};
    [steps] is the compiled run's step count, which {!Stackvm.Compile}'s
    equivalence contract makes the interpreter's.  Crashing or
    fuel-exhausted runs still yield whatever trace prefix was collected —
    never an exception. *)

val recognize_buf :
  passphrase:string -> watermark_bits:int -> Stackvm.Tracebuf.t -> outcome
(** Offline recognition straight off a packed event buffer — no event
    records, no lists: the decoder every other entry point goes through.
    [steps] is 0. *)

val recognize_branches :
  passphrase:string ->
  watermark_bits:int ->
  Stackvm.Trace.branch_event list ->
  outcome
(** Offline recognition over an already-captured (possibly fault-injected)
    branch-event stream: {!recognize_buf} on the packed events. *)

val recognizes :
  ?fuel:int ->
  passphrase:string ->
  watermark_bits:int ->
  input:int list ->
  expected:Bignum.t ->
  Stackvm.Program.t ->
  bool
