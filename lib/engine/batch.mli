(** The batch runner: execute many {!Job}s in parallel, observably.

    [run] fans the jobs out over a {!Pool} (or runs them inline when
    [domains <= 1]), memoizes prepared hosts, traces and finished job results in
    an optional {!Cache}, reports every step to an optional {!Events}
    recorder, and isolates failures: a job that traps, runs out of fuel
    during embedding, or raises for any reason yields a [Failed] outcome
    (after [retries] bounded retries) without disturbing its peers.

    Every job is deterministic given its spec, so pooled results are
    byte-identical to sequential ones and safe to memoize by content
    digest. *)

type outcome =
  | Embedded of { program : string; bytes_before : int; bytes_after : int }
      (** [program] is the watermarked carrier's bytes
          ({!Scheme.Track.encode}) *)
  | Recognized of { value : Bignum.t option; matched : bool option }
  | Audited of {
      passes : string list;  (** the analyses that ran ({!Scheme.Track.locate}) *)
      marked_fns : string list;
          (** ground truth: functions the embedder added or rewrote
              (["region"], the embedded window, where the carrier has no
              functions) *)
      flagged_fns : string list;  (** locator-implicated, marked program *)
      clean_flagged : string list;
          (** locator-implicated on the {e clean} program — the
              false-positive baseline; empty on the stock workloads *)
      ndiags : int;  (** total diagnostics on the marked program *)
    }
  | Tournament_measured of {
      attack : string;  (** attack name (["identity"] for the no-op cell) *)
      control : bool;  (** credibility control: clean, unmarked carrier *)
      survived : bool;
          (** the exact embedded fingerprint was recovered after the
              attack; always [false] on control cells *)
      false_positive : bool;
          (** a control cell recovered the declared fingerprint from the
              {e unmarked} carrier *)
      confidence : float;  (** recognizer confidence in the recovery *)
      nfaults : int;
          (** injected faults that fired during recognition: branch events
              corrupted in a replayed trace, or 1 when the scheme's noisy
              tracer ran ({!Scheme.Watermarker.WATERMARKER.recognize_garbled}) *)
    }
      (** One tournament cell measured: embed → attack → recognize under
          the cell's fault plan ({!Job.Tournament_cell}).  A killed mark
          is a {e measurement}, not a job failure — only control-cell
          false positives make {!ok} false. *)
  | Failed of { reason : string; attempts : int }

type result = {
  job : Job.t;
  outcome : outcome;
  built : Scheme.Watermarker.carrier option;
      (** the marked carrier an [Embed] job built in this call, whose
          encoding is [Embedded.program]; [None] for the other kinds, a
          failure and a result served from the cache (the cache keeps
          only the bytes).  It shares every function the embedding left
          untouched with the job's host, and so with every other carrier
          built from that host: nothing in the library mutates a
          program's code arrays in place (the attacks copy a function
          before they rewrite it), and a caller must not either. *)
  ms : float;  (** execution wall-clock (≈0 when [from_cache]) *)
  attempts : int;  (** 0 when served from the result cache *)
  from_cache : bool;
}

val ok : result -> bool
(** [true] unless the outcome is [Failed] or a [matched]/[survived] check
    came back negative. *)

val describe_outcome : outcome -> string

val encode_outcome : outcome -> string
(** Compact tagged byte encoding (used for the result cache; total —
    every outcome round-trips). *)

val decode_outcome : string -> outcome option
(** [None] on malformed bytes (a corrupt spill file is a cache miss, not
    a crash). *)

type policy = {
  retries : int;  (** a failing job is attempted [1 + retries] times *)
  backoff_ms : float;  (** base delay before the first retry; 0 disables sleeping *)
  backoff_factor : float;  (** multiplier per further attempt (default 2.0) *)
  max_backoff_ms : float;  (** backoff ceiling *)
  fuel_escalation : float;
      (** > 1.0 scales a bounded fuel budget up on every retry, so a job
          starved by a fuel-cut fault can recover *)
  deadline_ms : float option;
      (** wall-clock budget for the whole batch: jobs starting (or
          retrying) past it fail fast with ["batch deadline exhausted"] *)
  breaker_threshold : int;
      (** after this many {e consecutive} crash-class failures of one job
          spec (keyed by {!Job.program_digest}), later jobs on that spec
          are short-circuited to [Failed] while peers proceed; 0 disables
          the breaker *)
}

val default_policy : policy
(** No retries, no backoff, no fuel escalation, no deadline, breaker off
    — exactly the pre-policy behaviour. *)

exception Injected_crash
(** Raised inside a worker when a [crash]-fault plan fires; rides the
    ordinary retry/breaker path like any other job exception. *)

val run :
  ?domains:int ->
  ?retries:int ->
  ?policy:policy ->
  ?inject:Fault.Inject.plan ->
  ?cache:Cache.t ->
  ?events:Events.t ->
  Job.t list ->
  result list
(** Execute the jobs; results are in job order.  [domains] defaults to 1
    (sequential).  [retries] is a shorthand that overrides
    [policy.retries].  [inject] applies a deterministic fault plan inside
    the run — trace noise before recognition, worker crashes, fuel
    cuts, corrupted result-cache entries; tournament cells carry their
    own plan for trace noise and for garbling the tracer's observations
    (majority-voted over several passes).  Faulted runs cache under a
    digest salted with the plan, so they never poison clean results.  No
    injected fault escapes as an exception: every job still returns a
    typed outcome.

    Every job resolves [job.scheme] through {!Scheme.Builtin.find_exn},
    fails if the scheme's track is not its carrier's, and runs the
    scheme's {!Scheme.Watermarker.WATERMARKER} entry points: [embed] (or,
    for a scheme with [prepare], the host prepared once per (program
    bytes, input, fuel) and shared through the cache), [sink] over a
    replayed branch trace when there is one, else [recognize], and
    [recognize_garbled] under a cell's garbling plan.  Per-track steps —
    encoding, trace capture, attacks, the audit's locate step — come from
    {!Scheme.Track}.  Each distinct carrier is encoded once per call, and
    each job's content addresses are computed once, before any job runs;
    the job-spec digest the breaker keys on only when a breaker is
    configured. *)
