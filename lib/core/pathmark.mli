(** Pathmark: dynamic path-based software watermarking.

    The umbrella API of the library, re-exporting every subsystem plus
    high-level one-call wrappers for the two pipelines of the paper:

    - the {b bytecode track} (§3): split the fingerprint into encrypted CRT
      pieces and embed them in the dynamic branch behaviour of a stack-VM
      program; recognition is blind and error-correcting;
    - the {b native track} (§4): encode the fingerprint in the address
      order of branch-function call sites, protected by perfect-hash
      dispatch and tamper-proofed indirect jumps.

    See DESIGN.md for the system inventory and EXPERIMENTS.md for the
    reproduction of the paper's evaluation. *)

module Util = Util
module Bignum = Bignum
module Numtheory = Numtheory
module Crypto = Crypto
module Codec = Codec
module Stackvm = Stackvm
module Minic = Minic
module Jwm = Jwm

module Gwm = Gwm
(** The graph track: a WaterRPG-style dynamic watermark that encodes the
    fingerprint as a reducible permutation graph and replays it through
    traced branch behaviour. *)

module Vmattacks = Vmattacks
module Nativesim = Nativesim
module Phash = Phash
module Nwm = Nwm
module Nattacks = Nattacks
module Workloads = Workloads

module Scheme = Scheme
(** The pluggable scheme layer: the generic {!Scheme.Watermarker} module
    signature, the name-keyed {!Scheme.Registry}, built-in registrations
    ({!Scheme.Builtin}) and multi-watermark composition ({!Scheme.Compose},
    names like ["jwm+gwm"]). *)

module Engine = Engine
(** The parallel batch engine: {!Engine.Job} specs executed by a
    Domain-based {!Engine.Pool} with content-addressed {!Engine.Cache}
    memoization and an {!Engine.Events} stream. *)

module Store = Store
(** The persistent watermark registry: a crash-safe, content-addressed
    on-disk store ({!Store.Registry}) with an append-only CRC-checked
    journal ({!Store.Journal}). *)

module Service = Service
(** The service layer: a Unix-domain-socket server ({!Service.Server})
    and client ({!Service.Client}) speaking the length-prefixed binary
    protocol of {!Service.Proto} / {!Service.Wire}. *)

(** {1 Bytecode track} *)

val watermark_vm :
  ?seed:int64 ->
  key:string ->
  watermark:Bignum.t ->
  bits:int ->
  pieces:int ->
  input:int list ->
  Stackvm.Program.t ->
  Stackvm.Program.t
(** Embed a fingerprint; [key] and [input] are the recognition secrets. *)

val recognize_vm :
  ?fuel:int ->
  key:string ->
  bits:int ->
  input:int list ->
  Stackvm.Program.t ->
  Bignum.t option
(** Blind recognition: only the program and the secrets are needed — see
    {!Jwm.Recognize.recognize}. *)

val watermark_batch :
  ?seed:int64 ->
  ?domains:int ->
  ?cache:Engine.Cache.t ->
  ?events:Engine.Events.t ->
  key:string ->
  bits:int ->
  pieces:int ->
  input:int list ->
  fingerprints:Bignum.t list ->
  Stackvm.Program.t ->
  Stackvm.Program.t list
(** Fleet fingerprinting: embed one distinct fingerprint per list element
    into the same host program, fanned out over [domains] worker domains
    (sequential when 1).  Per-job seeds are derived deterministically from
    [seed], so the results are byte-identical whatever the pool size.
    With a [cache], the host trace is captured once and shared by every
    job, and finished jobs are memoized by content digest.  A job computed
    in this call returns the program it built, which shares the
    functions it left untouched with [prog]; one served from the cache is
    decoded from its bytes.  Raises [Failure] if any job fails. *)

val batch_seed : int64 -> int -> int64
(** [batch_seed seed i] is the embedding seed of the [i]th fingerprint of
    a fleet seeded with [seed] (a golden-ratio stride per index): the one
    rule {!watermark_batch} and [pathmark batch] share. *)

(** {1 Native track} *)

val watermark_native :
  ?seed:int64 ->
  ?tamper_proof:bool ->
  watermark:Bignum.t ->
  bits:int ->
  training_input:int list ->
  Nativesim.Asm.program ->
  Nwm.Embed.report
(** Embed into rewriter-level assembly; the report carries the
    [begin]/[end] addresses extraction needs. *)

val extract_native :
  ?kind:Nwm.Extract.kind ->
  Nativesim.Binary.t ->
  begin_addr:int ->
  end_addr:int ->
  input:int list ->
  Bignum.t option
(** Single-step extraction with the smart tracer by default. *)
