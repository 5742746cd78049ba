(** Distortive attacks on stack-VM programs.

    SandMark ships forty semantics-preserving code transformations that an
    adversary might run against a watermarked program; Section 5.1.2 of the
    paper reports that only class encryption and (heavy) branch insertion
    destroy the path-based mark.  This module implements a representative
    suite over our VM.  Every attack is semantics-preserving — the attacked
    program produces identical observable behaviour on every input — and
    keeps the program verifier-clean.

    All attacks are deterministic given the supplied generator. *)

type t = Util.Prng.t -> Stackvm.Program.t -> Stackvm.Program.t

val nop_insertion : rate:float -> t
(** Insert [rate * |code|] [Nop]s at random positions. *)

val branch_insertion : rate:float -> t
(** The attack measured in Figures 8(c)/8(d): insert bogus conditional
    branches guarding dead updates, [rate] per existing {e branch} (a rate
    of 1.5 grows the branch count by 150%).  Predicates read live locals,
    so branch directions vary at run time. *)

val block_reorder : t
(** Shuffle basic-block layout in every function (entry stays first). *)

val branch_sense_invert : fraction:float -> t
(** Invert the sense of a random [fraction] of conditional branches,
    swapping taken/fall-through with a compensating jump. *)

val goto_chaining : fraction:float -> t
(** Route a [fraction] of branch targets through trampoline jumps appended
    at the end of the function. *)

val block_splitting : count:int -> t
(** Split blocks by inserting explicit jumps to the next instruction at
    [count] random positions per function. *)

val instruction_reorder : t
(** Swap adjacent independent instructions inside basic blocks (e.g. two
    pushes of unrelated values). *)

val local_permute : t
(** Renumber non-argument local slots with a random bijection per function
    (the register-renaming analog). *)

val constant_split : fraction:float -> t
(** Rewrite [Const c] into [Const a; Const b; Add] for a random split. *)

val dead_code_insertion : count:int -> t
(** Insert computations into fresh dead locals at [count] random spots per
    function. *)

val block_duplicate : count:int -> t
(** Duplicate up to [count] basic blocks per function and retarget one
    predecessor branch to the copy. *)

val method_proxy : t
(** "Method splitting": move every function body behind a fresh name and
    turn the original into a forwarding stub. *)

val inline_calls : t
(** "Method merging": inline non-recursive small callees at direct call
    sites. *)

val all : (string * t) list
(** The named suite used for the resilience table (§5.1.2), with
    representative parameters.  Includes ["rpg-strip"]
    ({!Gattacks.Rpg_strip.attack}), the locator-guided strike against
    appended graph-track walkers. *)

(* ---- the class-encryption analog ---- *)

type package
(** A program encrypted at rest: a loader decrypts it only at run time,
    denying static instrumenters access to the code (the paper's class
    encryption attack). *)

val encrypt_package : key:int64 -> Stackvm.Program.t -> package
val package_bytes : package -> string

val static_instrument : package -> Stackvm.Program.t option
(** What a bytecode-rewriting tracer sees: it cannot reconstruct the
    program from the encrypted package, so instrumentation fails —
    always [None]. *)

val run_package : package -> input:int list -> Stackvm.Interp.result
(** Execute the package: the loader decrypts and runs (the program still
    behaves identically). *)

val vm_trace_package : package -> input:int list -> Stackvm.Tracebuf.t
(** Tracing via the VM's profiling interface (the JVMPI/JVMTI analog): the
    VM necessarily sees decoded code, so tracing — and hence recognition —
    still works, as §5.1.2 argues.  Yields the branch events recognition
    decodes ({!Stackvm.Trace.record}). *)
