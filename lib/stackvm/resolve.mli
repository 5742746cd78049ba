(** Memoized per-program resolution tables, shared by the engine and the
    reference interpreter.

    [of_program] computes — once per program value — the call-dispatch
    name table, the per-function block-leader bitmaps and the index of
    [main], and caches them under the program's physical identity (an
    ephemeron, so the tables die with the program).  Safe to call from
    multiple domains. *)

type t = {
  fidx_of : (string, int) Hashtbl.t;  (** function name -> index *)
  starts : bool array array;  (** per function, {!Program.block_starts} *)
  main_idx : int option;  (** index of [prog.main], if present *)
}

val of_program : Program.t -> t
