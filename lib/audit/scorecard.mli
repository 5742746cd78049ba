(** The per-scheme stealth scorecard.

    Fans schemes × workloads through {!Engine.Batch} audit jobs: each
    cell embeds a fingerprint into a clean workload, runs the track's
    locate step ({!Scheme.Track.locate}: the scheme's declared
    {!Analysis.Locator} passes, or [nlint] on native binaries) over the
    clean and the marked artifact, and scores the {e hit rate} — flagged marked functions over
    marked functions.  A scheme's observed hit rate (worst cell) is then
    gated against the locatability ceiling its capability metadata
    declares ({!Scheme.Watermarker.caps}): exceeding the ceiling, or
    flagging anything on a clean program, is a gate violation (the CI
    audit gate turns those into a failing exit). *)

type cell = {
  workload : string;
  passes : string list;
  marked : string list;  (** ground-truth marked functions *)
  flagged : string list;  (** locator-implicated on the marked program *)
  hits : string list;  (** [flagged ∩ marked] *)
  false_positives : string list;  (** flagged on the {e clean} program *)
  ndiags : int;
  hit_rate : float;  (** [|hits| / |marked|]; 0 when nothing was marked *)
  ms : float;  (** job time; not in {!to_json}, which stays deterministic *)
  failed : string option;  (** failure reason; other fields zeroed *)
}

type row = {
  scheme : string;
  track : Scheme.Watermarker.track;
  declared : float;  (** the scheme's declared locatability ceiling *)
  cells : cell list;
  observed : float;  (** worst (largest) cell hit rate *)
}

type violation = {
  v_scheme : string;
  v_workload : string;
  v_reason : string;  (** human-readable gate-violation description *)
}

type t = { rows : row list; violations : violation list }

val run :
  ?domains:int ->
  ?seed:int64 ->
  ?bits:int ->
  ?fingerprint:Bignum.t ->
  ?key:string ->
  schemes:string list ->
  workloads:Workloads.Workload.t list ->
  unit ->
  t
(** Audit every scheme on every workload of its track (native-track
    schemes audit the workloads' native compilations).  Composite
    names (["jwm+gwm"]) resolve through the registry like everywhere
    else.  Defaults: 16-bit fingerprint [0xBEEF], key ["audit"],
    library seed. *)

val gate_ok : t -> bool
(** No violations: every scheme stayed within its declared surface and
    nothing was flagged on clean programs. *)

val render : t -> string
(** Text table, one row per scheme × workload cell, followed by any
    violations. *)

val to_json : t -> string
(** Stable JSON rendering (objects keyed by scheme, arrays of cells) for
    [pathmark audit --json]; it carries no timings, so the same audit
    renders the same bytes. *)
