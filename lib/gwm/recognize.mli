(** Graph-watermark recognition — dynamic, blind.

    Re-run the program on the execution engine ({!Stackvm.Compile}) and
    fold each conditional-branch event, as it happens, into a {!stream}:
    the event's static branch site gets its id on first occurrence, and
    the event's taken-bit goes onto that site's byte stream.  At the end
    every per-site stream — and its complement, so branch-sense inversion
    is survived — is searched for the keyed sync word with one rolling
    window per stream.  Each match yields a candidate window; windows
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
(** One compiled run on [input] (default fuel 200 million steps), every
    event pushed into a fresh {!stream}: no event buffer, no second pass.
    [steps] is the run's step count.  Crashing or fuel-exhausted runs still
    yield whatever prefix was pushed; a program the engine refuses reports
    "program failed to run" — never an exception. *)

val recognize_buf :
  passphrase:string -> watermark_bits:int -> Stackvm.Tracebuf.t -> outcome
(** Offline recognition over an already-captured packed event buffer,
    folded into a fresh {!stream}.  [steps] is 0. *)

val recognize_branches :
  passphrase:string ->
  watermark_bits:int ->
  Stackvm.Trace.branch_event list ->
  outcome
(** {!recognize_buf} on an event list, each event packed and pushed in
    turn.  Kept only for the benchmark's gwm chain, which reads
    {!Stackvm.Trace.t.branches}, until the benchmark reads the packed
    buffer. *)

type stream
(** The per-site bit streams of the events pushed so far.  Decoding needs
    every bit, so a stream never decides early. *)

val stream_start : passphrase:string -> watermark_bits:int -> stream
val stream_push : stream -> int -> unit
(** Feed one packed branch event ({!Stackvm.Tracebuf.pack}). *)

val stream_finish : stream -> outcome
(** Decode everything pushed so far.  [steps] is 0. *)

val recognizes :
  ?fuel:int ->
  passphrase:string ->
  watermark_bits:int ->
  input:int list ->
  expected:Bignum.t ->
  Stackvm.Program.t ->
  bool
