(** The cross-product resilience tournament.

    Every registered watermarking scheme (including ['+']-compositions)
    is measured on the full matrix

    {v scheme × workload × attack × fault plan v}

    where each {e cell} embeds a fingerprint, applies one attack, and
    re-recognizes under the cell's fault plan
    ({!Engine.Job.Tournament_cell}).  Cells are ordinary {!Engine.Batch}
    jobs — content-addressed, so a rerun over an unchanged matrix is
    served from the result cache — and the reducer folds them into one
    scorecard per scheme:

    - {b survival rate per attack class} — attacks are grouped into the
      taxonomy of {!attack_class} (identity / distortive / analyzer /
      graph / layout / collusion) so a scheme that shrugs off ten nop
      variants but dies to one guided strip is not flattered by volume;
    - {b credibility} — the false-positive rate on unmarked control
      cells (one per scheme × workload × plan), as in the paper's §5.1.3
      credibility requirement;
    - {b composite resilience} — credibility × class-balanced survival,
      checked against the scheme's declared
      {!Scheme.Watermarker.caps.resilience_floor}: the gate fails any
      scheme measuring below what it committed to. *)

type cell = {
  c_scheme : string;
  c_workload : string;
  c_attack : string;
  c_plan : string;  (** fault-plan name *)
  c_control : bool;  (** unmarked credibility control *)
  c_survived : bool;
  c_false_positive : bool;
  c_confidence : float;
  c_nfaults : int;
  c_cached : bool;  (** served from the result cache *)
  c_ms : float;  (** job time; not in {!to_json}, which stays deterministic *)
  c_failed : string option;
}

type class_stats = { cls : string; cls_total : int; cls_survived : int; cls_rate : float }

type summary = {
  marked : int;  (** non-control cells *)
  survived : int;
  controls : int;
  false_positives : int;
  credibility : float;  (** 1 − false-positive rate; 1 with no controls *)
  classes : class_stats list;  (** sorted by class name *)
  survival : float;  (** unweighted mean of the class rates *)
  composite : float;  (** credibility × survival *)
  conf_min : float;  (** over surviving cells; all 0 when none survive *)
  conf_mean : float;
  conf_max : float;
}

type row = {
  scheme : string;
  track : Scheme.Watermarker.track;
  floor : float;  (** the scheme's declared resilience floor *)
  cells : cell list;
  summary : summary;
}

type violation = { v_scheme : string; v_cell : string; v_reason : string }

type t = { rows : row list; violations : violation list }

val default_bits : int
val default_fingerprint : Bignum.t
val default_key : string

val attack_class : string -> string
(** ["identity"], ["analyzer"] (targeted-strip, static-strip), ["graph"]
    (rpg-strip), ["layout"] (bypass, reroute), ["collusion"]
    (double-watermark) or ["distortive"] (every other transformation). *)

val default_attacks : string list
(** One representative per attack class on the VM track (the full
    registry would triple the matrix without changing any class rate)
    and the whole native vocabulary, in matrix order.  Each track runs
    the names it knows ({!Scheme.Track.attack_names}). *)

val default_fault_plans : (string * Fault.Spec.t list) list
(** [("clean", [])] and a ["noisy"] plan whose rates sit below either
    track's measured tolerance, so it degrades confidence without
    changing survival. *)

val summarize : cell list -> summary
(** The pure reducer: fold one scheme's cells into its summary.  The
    composite is monotone in the per-cell survivals — flipping any
    marked cell to surviving never lowers it. *)

val run :
  ?domains:int ->
  ?seed:int64 ->
  ?bits:int ->
  ?fingerprint:Bignum.t ->
  ?key:string ->
  ?attacks:string list ->
  ?fault_plans:(string * Fault.Spec.t list) list ->
  ?fault_seed:int64 ->
  ?cache:Engine.Cache.t ->
  ?events:Engine.Events.t ->
  schemes:string list ->
  workloads:Workloads.Workload.t list ->
  unit ->
  t
(** Compile the matrix into one {!Engine.Batch} job graph, run it, and
    reduce.  [attacks] restricts the matrix to the named attacks (each
    applied on whichever tracks know it; a name known to neither track
    is [Invalid_argument]); by default {!default_attacks}.  Emits {!Engine.Events.Tournament_cell_done}
    per cell and {!Engine.Events.Tournament_gate} per scheme when
    [events] is given.  Violations collect failed cells, control-cell
    false positives, and schemes whose composite falls below their
    declared floor (schemes with zero marked cells have no gate
    basis). *)

val gate_ok : t -> bool
(** No violations. *)

val render : t -> string
(** Human-readable scorecard table plus violations. *)

val to_json : t -> string
(** The scorecard as one JSON object ([rows] / [violations] / [gate_ok]
    / [cells] / [cached_cells]).  It carries no timings, so the same
    matrix renders the same bytes. *)
