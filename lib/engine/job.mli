(** Deterministic batch-job specifications.

    A job fully describes one unit of watermarking work — embed,
    recognize, a stealth audit or a tournament cell over a carrier ×
    fingerprint × input triple, under a scheme named in the registry —
    plus the seed and fuel that make its execution reproducible.  The
    carrier's track (a stack-VM program or native assembly) is the
    scheme's business, not the job's: one job shape serves both.  Equal
    specs produce equal results no matter which domain runs them or in
    what order, which is what lets {!Pool} schedule freely and {!Cache}
    memoize by content.

    {!digest} is the job's content address: a stable hex digest over every
    semantically relevant field (the program {e bytes}, not its identity).
    The [label] is cosmetic and excluded. *)

type cell_spec = {
  cell_fingerprint : Bignum.t;
  cell_attack : string;
      (** attack name on the carrier's track (["identity"] applies
          nothing), resolved by {!Scheme.Track.attack} *)
  cell_control : bool;
      (** credibility control: recognize the {e unmarked} program instead
          — any recovery of [cell_fingerprint] is a false positive.  A
          non-blind scheme still embeds, for the recognition hint *)
  cell_fault_seed : int64;
  cell_faults : Fault.Spec.t list;
      (** the cell's own fault plan, applied to the recognition trace
          (a scheme with a {!Scheme.Watermarker.WATERMARKER.sink}) or to
          the tracer's observations (one with [recognize_garbled]); part
          of the digest, so faulted cells cache separately from clean
          ones *)
}
(** One tournament cell: embed [cell_fingerprint], apply [cell_attack],
    recognize under the cell's fault plan, and report survival — the unit
    of the scheme × workload × attack × fault-plan cross-product
    ({!Tournament.Scorecard}). *)

type action =
  | Embed of { fingerprint : Bignum.t; pieces : int }
  | Recognize of { expected : Bignum.t option }
      (** blind recognition; [expected] only adds a match check *)
  | Audit of { fingerprint : Bignum.t }
      (** stealth audit: embed into the (clean) carrier, then run the
          track's locate step ({!Scheme.Track.locate}) over both the clean
          and the marked carrier *)
  | Tournament_cell of cell_spec

type t = {
  label : string;  (** display name; not part of the digest *)
  key : string;
      (** watermark passphrase; [""] on a native carrier, whose track
          reads none ({!Scheme.Track.keyed}) *)
  bits : int;  (** watermark width *)
  input : int list;  (** secret / training input sequence *)
  seed : int64;  (** deterministic randomness seed *)
  fuel : int option;  (** per-job execution budget (the timeout analog) *)
  scheme : string;
      (** registry name of the watermarking scheme ({!Scheme.Builtin});
          default ["jwm"].  Its track must be the carrier's. *)
  program : Scheme.Watermarker.carrier;  (** what [action] runs on ({!make}) *)
  action : action;
}

val make :
  ?label:string ->
  ?seed:int64 ->
  ?fuel:int ->
  ?scheme:string ->
  key:string ->
  bits:int ->
  input:int list ->
  Scheme.Watermarker.carrier ->
  action ->
  t
(** A job running [action] on the carrier.  Defaults: scheme ["jwm"],
    seed {!Scheme.Watermarker.default_seed}, no fuel override, and a
    label naming the action.  The carrier is the {e clean} host for
    [Embed], [Audit] and [Tournament_cell] (the audit and the cell embed
    internally) and the artifact for [Recognize], where a non-blind
    scheme has no hint and reports its own "aux required" failure. *)

val cell_spec :
  ?control:bool ->
  ?fault_seed:int64 ->
  ?faults:Fault.Spec.t list ->
  fingerprint:Bignum.t ->
  attack:string ->
  unit ->
  cell_spec
(** Defaults: not a control, fault seed 1, empty fault plan. *)

val program_bytes : t -> string
(** Canonical byte serialization of the job's carrier
    ({!Scheme.Track.encode}). *)

val program_digest : ?program_bytes:string -> t -> string
(** Hex digest of {!program_bytes} alone.

    This and the two digests below take [program_bytes], which must then
    be {!program_bytes} of the job, so that a batch encodes each distinct
    carrier once and hands its bytes to every job on it. *)

val trace_digest : ?program_bytes:string -> t -> string
(** Hex digest of (program bytes, input, fuel) — the content address of
    the job's {e trace}, shared by every job that runs the same program on
    the same input regardless of fingerprint or action.  This is the key
    under which {!Cache} memoizes trace capture. *)

val digest : ?program_bytes:string -> t -> string
(** Stable hex digest of the full spec (minus [label]). *)

val kind : t -> string
(** Short action tag: ["embed"], ["recognize"], ["audit"] or
    ["tournament"] — used as the cache stage for memoized job results. *)

val describe : t -> string
(** One-line description for logs. *)
