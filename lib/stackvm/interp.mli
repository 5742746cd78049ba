(** The reference interpreter.

    Executes a program on an input sequence (the secret watermark input of
    the paper is such a sequence) and optionally reports events to an
    observer: entry into each basic block, with access to the live locals
    and globals, and the outcome of every conditional branch.  Production
    code runs {!Compile}; this module is the definition it is tested
    against — the test suite's oracle trace capture is built on [run] —
    and the home of the result type both share. *)

type observer = {
  on_block : fidx:int -> pc:int -> locals:int array -> globals:int array -> unit;
      (** called on entry to each basic block; the arrays are the live
          frames — copy them if you keep them *)
  on_branch : fidx:int -> pc:int -> taken:bool -> unit;
      (** called after each [If] resolves *)
}

type outcome =
  | Finished of int  (** [main]'s return value *)
  | Trapped of { fidx : int; pc : int; reason : string }
  | Out_of_fuel

type result = {
  outcome : outcome;
  outputs : int list;  (** values printed, in order *)
  steps : int;  (** instructions executed — the cost metric of Figure 8 *)
}

val run : ?observer:observer -> ?fuel:int -> Program.t -> input:int list -> result
(** [run prog ~input] executes [prog.main]. [fuel] (default [max_int])
    bounds the executed instruction count. The program is not re-verified;
    run {!Verify.check} first on untrusted code. *)

val checked_shift_left : int -> int -> int
(** [Shl] semantics (shift count masked to 6 bits, >= 63 yields 0) —
    shared with the compiled engine so the two cannot drift. *)

val checked_shift_right : int -> int -> int
(** [Shr] semantics (arithmetic, >= 63 yields the sign), shared
    likewise. *)
