(** The execution engine.

    Translates a program once into threaded code — one OCaml closure per
    instruction, dispatched through per-function closure arrays — with all
    static resolution (call targets, binop selection, slot bounds, packed
    branch events, fall-through pcs) done at translation time, and all
    dynamic state (operand stack, locals, call frames) held in flat
    preallocated [int array]s with explicit pointers.  Hot in-block
    sequences of two to four instructions run as one fused op behind one
    dispatch, guarded so that it falls back to the single op at its pc
    whenever the sequence could stop inside (fuel, stack depth, a trap).
    A caller that runs one program on N inputs translates it once and runs
    the [code] N times.

    {b Equivalence contract}: for every program and input, [run] produces
    the same {!Interp.result} as {!Interp.run} — same outcome (including
    trap reason, trapping function and pc), same outputs, same step
    count — and, when tracing, the same branch-event sequence.  This holds
    for trapping and out-of-fuel runs too.  The interpreter is kept only
    as the reference: the [compile] test suite runs it beside this engine
    on every workload and on random programs, and runs its oracle trace
    capture ([test/vm_oracle.ml]) beside {!Trace.capture}.  A translation
    made with a {!block_hook} is the same translation with the op at each
    block entry wrapped to call the hook first; it reports every block
    entry exactly where {!Interp.run} calls its observer's [on_block], in
    the same order.  That is how {!Trace.capture} records the block counts
    and variable snapshots embedding needs.  Recognition — jwm and gwm
    alike — and every snapshot-free capture run a translation without the
    hook, which carries no trace of it. *)

type code
(** A compiled program (immutable, shareable across domains and runs). *)

type block_hook = fidx:int -> pc:int -> locals:int array -> lbase:int -> globals:int array -> unit
(** Called on entry to each basic block, where {!Interp.run} calls
    [on_block]: main's entry (even at fuel 0), every [Jump] and taken
    [If] target (out-of-range ones and the code length included), every
    fall-through into a block leader, a callee's pc 0 and a [Ret] to a
    caller pc that is a leader — with the machine state the transfer
    left, fuel cut or not.  The current frame's locals are
    [locals.(lbase) .. locals.(lbase + nlocals - 1)] of function [fidx];
    both arrays are live machine state — copy what you keep. *)

val of_program : ?on_block:block_hook -> Program.t -> code
(** Translate, afresh on every call: the translation lives only as long
    as its caller holds it.  With [on_block], the op at every block leader,
    and at pc 0 of an empty function, calls [on_block] before it runs; the
    run itself reports the two entries no op runs at, a fuel cut at an
    entry and a transfer to an out-of-range pc.
    @raise Invalid_argument when [prog.main] is missing. *)

val fused_lengths : Program.t -> int array array
(** Per function and pc, how many instructions the op the translation
    places at that pc runs behind one dispatch: 2 to 4 where a fused form
    starts, 1 everywhere else (inside a form too, where the single op
    stays for the form's fallback).  The block hook wraps ops from
    outside, so the lengths are the same with or without it; no form
    spans a block leader. *)

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

val equivalent_on : ?fuel:int -> Program.t -> Program.t -> inputs:int list list -> bool
(** Semantics-preservation check used by the attack experiments and
    tests: both programs produce identical outputs and outcome (a trap
    matching on its reason) on every given input. *)
