(** The generic watermarking-scheme interface.

    The paper hard-wires two embedding tracks — CRT-split pieces in stack-VM
    branch behaviour ({!Jwm}) and branch-function call-site ordering in
    native code ({!Nwm}).  This module abstracts what a scheme {e is}: a
    named module that can embed a fingerprint into a carrier, recognize it
    back, and describe its own capabilities (track, capacity, blindness,
    stealth profile, attack surface).  Every scheme registers itself in
    {!Registry} under its [name]; the CLI, the service wire protocol and
    the batch engine then select schemes by name instead of linking against
    a concrete module. *)

type track =
  | Vm  (** operates on stack-VM programs (the paper's Java track) *)
  | Native  (** operates on native binaries (the paper's SPEC track) *)

val track_to_string : track -> string

type caps = {
  track : track;
  max_bits : int;
      (** largest fingerprint width the scheme supports; [0] = unbounded *)
  blind : bool;
      (** recognition needs only key + input (no per-embedding aux data) *)
  stealth : string;  (** one-line stealth profile *)
  attack_surface : string;  (** one-line summary of known attacks *)
  locator_passes : string list;
      (** the {!Analysis.Locator} passes with any chance of finding this
          scheme's artifacts; the audit scorecard runs exactly these *)
  locatability : float;
      (** declared ceiling, in [0,1], on the locator hit-rate (flagged
          marked functions / marked functions) the scheme admits; the
          audit gate fails a scheme whose observed hit-rate exceeds it *)
  resilience_floor : float;
      (** declared floor, in [0,1], on the composite resilience score the
          scheme commits to on the tournament matrix
          ({!Tournament.Scorecard}): class-balanced attack survival damped
          by credibility.  The tournament gate fails a scheme whose
          measured composite falls below this floor. *)
}

type spec = {
  key : string;  (** secret passphrase: derives inputs-independent params *)
  bits : int;  (** fingerprint width in bits *)
  input : int list;  (** the secret input sequence *)
  seed : int64;  (** randomization seed; equal seeds ⇒ identical output *)
  fuel : int option;  (** interpreter step budget, [None] = scheme default *)
  redundancy : int;
      (** redundant copies/pieces to insert (Jwm pieces, Gwm repetitions) *)
}

val spec :
  ?seed:int64 ->
  ?fuel:int ->
  ?redundancy:int ->
  key:string ->
  bits:int ->
  input:int list ->
  unit ->
  spec
(** Build a spec with the library-wide defaults: [seed] 0x1234_5678,
    [redundancy] 40, no fuel override. *)

type carrier =
  | Vm_program of Stackvm.Program.t
  | Native_source of Nativesim.Asm.program
      (** assembly, as native embedders rewrite pre-layout code *)
  | Native_binary of Nativesim.Binary.t

val carrier_track : carrier -> track
val carrier_size : carrier -> int
(** Serialized size in bytes (program image or binary image). *)

type embedding = {
  carrier : carrier;  (** the watermarked artifact *)
  aux : string;
      (** scheme-private recognition hint (e.g. Nwm begin/end addresses),
          [""] for blind schemes; opaque to callers, feed back verbatim *)
  bytes_before : int;
  bytes_after : int;
  detail : string;  (** human-readable one-line embedding summary *)
}

type recovered = {
  value : Bignum.t option;  (** the recovered fingerprint, if any *)
  confidence : float;
      (** in [0,1].  With [value = None] it scores the partial evidence:
          jwm reports up to 0.45 when some consistent residue statements
          survived, gwm and nwm report 0.  The batch engine counts a lost
          mark with confidence above 0 as [recognitions.partial]. *)
  detail : string;  (** human-readable one-line recognition summary *)
}

type sink = {
  push : int -> unit;
      (** fold one packed branch event ({!Stackvm.Tracebuf.pack}) into the
          recognition state; never decides on its own *)
  decide : unit -> bool;
      (** [true] once the scheme is confident, so the caller may stop the
          run.  It may cost a recombination, so callers ask only every few
          thousand events.  jwm decides once its confidence reaches 0.9,
          which takes a redundancy margin of 3: the corpus's 64-bit marks
          in 20 pieces never get there, while every 256-bit corpus entry
          stops early.  gwm always answers [false]. *)
  finish : unit -> recovered;
      (** the recognition result over everything pushed so far *)
}
(** A recognition session fed the branch events of one run, live or
    replayed: the one VM recognition hook, from which {!recognize_events},
    {!run_sink} and a composite's single run ({!Compose}) are derived. *)

module type WATERMARKER = sig
  val name : string
  val caps : caps

  val nbits : spec -> int
  (** Effective capacity for [spec] (≤ [spec.bits]; the width actually
      provisioned). *)

  val embed : Bignum.t -> spec -> carrier -> embedding
  (** Raises [Invalid_argument] on a carrier of the wrong track or a value
      wider than [nbits spec]. *)

  val embed_traced :
    (Stackvm.Trace.t -> Bignum.t -> spec -> carrier -> embedding) option
  (** {!embed} from an already-captured snapshot trace of the carrier on
      [spec.input], so a fleet of fingerprints into one host pays for one
      traced run; [None] for schemes whose embedding needs no trace. *)

  val recognize : ?aux:string -> spec -> carrier -> recovered
  (** Non-blind schemes require the [aux] produced by {!embed}. *)

  val sink : (spec -> sink) option
  (** A fresh recognition session for [spec]; [None] for schemes that
      cannot recognize from a bare branch stream (native track). *)
end

val default_seed : int64
val default_redundancy : int

val recognize_events : (spec -> sink) -> spec -> Stackvm.Tracebuf.t -> recovered
(** Offline recognition over an already-captured (possibly salvaged or
    fault-injected) packed branch trace: every event folded into a fresh
    sink, then [finish].  Never asks [decide]. *)

val run_sink :
  ?decide_every:int -> sink -> spec -> Stackvm.Program.t -> [ `Completed | `Stopped of int ]
(** Compile the program once and run it on [spec.input] under [spec.fuel]
    (default 200 million steps), pushing every branch event into the sink
    and asking [decide] after every [decide_every] events (default 4096,
    jwm's probe period; [0]: never).
    The run halts on the first [true]: [`Stopped steps] counts the
    instructions executed until then.  A trapping or fuel-cut run
    completes with the prefix pushed.  Raises what translating or running
    the program raises. *)
