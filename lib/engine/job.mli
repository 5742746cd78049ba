(** Deterministic batch-job specifications.

    A job fully describes one unit of watermarking work on either track —
    embed, recognize, a stealth audit or a tournament cell over a program ×
    fingerprint × input triple — plus the seed and fuel that make its
    execution reproducible.  Equal specs produce equal results no matter which
    domain runs them or in what order, which is what lets {!Pool} schedule
    freely and {!Cache} memoize by content.

    {!digest} is the job's content address: a stable hex digest over every
    semantically relevant field (the program {e bytes}, not its identity).
    The [label] is cosmetic and excluded. *)

type cell_spec = {
  cell_fingerprint : Bignum.t;
  cell_attack : string;
      (** attack name on the job's track (["identity"] applies nothing);
          VM cells resolve through {!Vmattacks.Attacks.all}, native cells
          through the fixed {!Nattacks} vocabulary *)
  cell_control : bool;
      (** credibility control: recognize the {e unmarked} program instead
          — any recovery of [cell_fingerprint] is a false positive *)
  cell_fault_seed : int64;
  cell_faults : Fault.Spec.t list;
      (** the cell's own fault plan, applied to the recognition
          trace/observations; part of the digest, so faulted cells cache
          separately from clean ones *)
}
(** One tournament cell: embed [cell_fingerprint], apply [cell_attack],
    recognize under the cell's fault plan, and report survival — the unit
    of the scheme × workload × attack × fault-plan cross-product
    ({!Tournament.Scorecard}). *)

type vm_action =
  | Embed of { fingerprint : Bignum.t; pieces : int }
  | Recognize of { expected : Bignum.t option }
      (** blind recognition; [expected] only adds a match check *)
  | Audit of { fingerprint : Bignum.t }
      (** stealth audit: embed into the (clean) carrier, then run the
          scheme's declared {!Analysis.Locator} passes over both the
          clean and the marked program and report which marked functions
          the static locator implicates *)
  | Tournament_cell of cell_spec

type native_action =
  | Native_audit of { fingerprint : Bignum.t }
      (** the audit action for the native track: embed, then run
          {!Analysis.Nlint} over clean and marked binaries and test
          whether any finding lands inside the embedded region *)
  | Native_tournament_cell of cell_spec

type payload =
  | Vm of { program : Stackvm.Program.t; action : vm_action }
  | Native of { program : Nativesim.Asm.program; action : native_action }

type t = {
  label : string;  (** display name; not part of the digest *)
  key : string;  (** watermark passphrase (VM track; ignored natively) *)
  bits : int;  (** watermark width *)
  input : int list;  (** secret / training input sequence *)
  seed : int64;  (** deterministic randomness seed *)
  fuel : int option;  (** per-job execution budget (the timeout analog) *)
  scheme : string;
      (** registry name of the watermarking scheme ({!Scheme.Registry});
          VM jobs default to ["jwm"], native jobs to ["nwm"] *)
  payload : payload;
}

val default_native_scheme : string

val vm_embed :
  ?label:string ->
  ?seed:int64 ->
  ?fuel:int ->
  ?scheme:string ->
  key:string ->
  bits:int ->
  pieces:int ->
  fingerprint:Bignum.t ->
  input:int list ->
  Stackvm.Program.t ->
  t

val vm_recognize :
  ?label:string ->
  ?seed:int64 ->
  ?fuel:int ->
  ?scheme:string ->
  ?expected:Bignum.t ->
  key:string ->
  bits:int ->
  input:int list ->
  Stackvm.Program.t ->
  t

val vm_audit :
  ?label:string ->
  ?seed:int64 ->
  ?fuel:int ->
  ?scheme:string ->
  key:string ->
  bits:int ->
  fingerprint:Bignum.t ->
  input:int list ->
  Stackvm.Program.t ->
  t
(** The program is the {e clean} carrier; the audit embeds internally. *)

val native_audit :
  ?label:string ->
  ?seed:int64 ->
  ?fuel:int ->
  bits:int ->
  fingerprint:Bignum.t ->
  input:int list ->
  Nativesim.Asm.program ->
  t

val cell_spec :
  ?control:bool ->
  ?fault_seed:int64 ->
  ?faults:Fault.Spec.t list ->
  fingerprint:Bignum.t ->
  attack:string ->
  unit ->
  cell_spec
(** Defaults: not a control, fault seed 1, empty fault plan. *)

val vm_tournament_cell :
  ?label:string ->
  ?seed:int64 ->
  ?fuel:int ->
  ?scheme:string ->
  key:string ->
  bits:int ->
  input:int list ->
  cell:cell_spec ->
  Stackvm.Program.t ->
  t
(** The program is the {e clean} carrier; the cell embeds internally
    (control cells skip the embed and the attack). *)

val native_tournament_cell :
  ?label:string ->
  ?seed:int64 ->
  ?fuel:int ->
  bits:int ->
  input:int list ->
  cell:cell_spec ->
  Nativesim.Asm.program ->
  t

val program_bytes : t -> string
(** Canonical byte serialization of the job's program
    ({!Stackvm.Serialize.encode}, or the assembled {!Nativesim.Binary}
    encoding). *)

val program_digest : t -> string
(** Hex digest of {!program_bytes} alone. *)

val trace_digest : t -> string
(** Hex digest of (program bytes, input, fuel) — the content address of
    the job's {e trace}, shared by every job that runs the same program on
    the same input regardless of fingerprint or action.  This is the key
    under which {!Cache} memoizes trace capture. *)

val digest : t -> string
(** Stable hex digest of the full spec (minus [label]). *)

val kind : t -> string
(** Short action tag: ["embed"], ["recognize"], ["audit"],
    ["tournament"], ["native-audit"] or ["native-tournament"] — used as
    the cache stage for memoized job results. *)

val describe : t -> string
(** One-line description for logs. *)
