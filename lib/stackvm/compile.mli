(** The compiled execution backend.

    Translates a program once into threaded code — one OCaml closure per
    instruction, dispatched through per-function closure arrays — with all
    static resolution (call targets, binop selection, slot bounds, packed
    branch events, fall-through pcs) done at translation time, and all
    dynamic state (operand stack, locals, call frames) held in flat
    preallocated [int array]s with explicit pointers.  Translation is
    memoized per program value, so a batch of N inputs compiles once and
    runs N times.

    {b Equivalence contract}: for every program and input, [run] produces
    the same {!Interp.result} as {!Interp.run} — same outcome (including
    trap reason, trapping function and pc), same outputs, same step
    count — and, when tracing, the same branch-event sequence.  This holds
    for trapping and out-of-fuel runs too, and is enforced by the qcheck
    backend-equivalence suite.  The one thing the compiled backend cannot
    do is fire the block-entry observer (locals/globals snapshots), which
    is why embedding keeps the interpreter while recognition — jwm and gwm
    alike — and every snapshot-free {!Trace.capture} use this. *)

type code
(** A compiled program (immutable, shareable across domains and runs). *)

val of_program : Program.t -> code
(** Translate (memoized by program identity).
    @raise Invalid_argument when [prog.main] is missing. *)

val run : ?trace:Tracebuf.t -> ?fuel:int -> code -> input:int list -> Interp.result
(** Execute. [trace], when given, receives every conditional-branch event
    (packed, appended directly by the branch closures — the
    zero-allocation fast path).  [fuel] defaults to [max_int] with
    {!Interp.run}'s accounting: a run whose step count reaches the budget
    ends with {!Interp.Out_of_fuel}. *)

val run_streaming :
  ?fuel:int ->
  code ->
  input:int list ->
  push:(int -> bool) ->
  [ `Completed of Interp.result | `Stopped of int ]
(** Execute, handing each packed branch event to [push] as it happens.
    When [push] returns [true] the run stops immediately — the streaming
    recognizer's early exit — and [`Stopped steps] reports the
    instructions executed up to that point.  A run that ends on its own
    yields [`Completed result] exactly as {!run} would. *)

val run_program : ?trace:Tracebuf.t -> ?fuel:int -> Program.t -> input:int list -> Interp.result
(** [run] composed with [of_program]. *)
