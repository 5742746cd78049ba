(** Static verification of stack-VM programs.

    Mirrors the role of the Java bytecode verifier the paper leans on (its
    footnote 1 notes that the verifier constrains what an embedder may do):
    every program the watermarker or an attack produces must still verify.
    Checks performed per function:

    - branch targets within the code array;
    - local slots within [nlocals], globals within [nglobals];
    - called functions exist (and [main] exists with zero arguments);
    - stack discipline: a unique, nonnegative operand-stack depth at every
      reachable instruction (computed by abstract interpretation with a
      worklist), matching depths at merge points, depth exactly 1 at [Ret],
      and enough operands for every instruction;
    - definite assignment: no path from the entry may read a local slot
      before some store writes it (arguments count as written) — a
      must-reach instance of reaching definitions, mirroring the JVM
      verifier's rule, solved over per-pc bitsets packed into one flat
      array (62 slots a word) so that verifying a marked program costs
      little beside embedding it. *)

type error = { func : string; pc : int; message : string }

val pp_error : Format.formatter -> error -> unit

val check : Program.t -> (unit, error list) result
(** All errors found, or [Ok ()]. *)

val check_exn : Program.t -> unit
(** Raises [Invalid_argument] with a rendered error list. *)

val depths : Program.t -> Program.func -> (int option array, error) result
(** The inferred stack depth before each instruction ([None] =
    unreachable); exposed for the embedder, which must splice in
    stack-neutral code. *)

val assigned : Program.func -> bool array option array
(** For each pc, the set of local slots definitely assigned on every path
    from the entry before that instruction executes ([None] =
    unreachable).  Exposed for code generators that must only read
    already-written host locals (the embedder's discriminator search, the
    branch-insertion attack). *)
