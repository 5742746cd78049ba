(* Memoized per-program resolution tables.

   The engine and the reference interpreter need the same derived views: the
   name -> index table for call dispatch, the per-function block-leader
   bitmaps for the on_block observer, and the index of main.  Interp.run
   used to rebuild all three on every call, which dominates short runs in
   a batch; here they are computed once per program value and cached.

   The cache is keyed by physical identity (programs are treated as
   immutable once built — every Program transform returns a fresh value)
   and held through an ephemeron so a dropped program does not leak its
   tables.  A mutex makes the lookup safe from the engine's domains. *)

type t = {
  fidx_of : (string, int) Hashtbl.t;
  starts : bool array array;
  main_idx : int option;
}

let build (prog : Program.t) =
  let fidx_of = Hashtbl.create (2 * max 1 (Array.length prog.funcs)) in
  Array.iteri (fun i (f : Program.func) -> Hashtbl.replace fidx_of f.Program.name i) prog.funcs;
  {
    fidx_of;
    starts = Array.map Program.block_starts prog.funcs;
    main_idx = Program.func_index prog prog.main;
  }

module Cache = Ephemeron.K1.Make (struct
  type t = Program.t

  let equal = ( == )

  let hash = Hashtbl.hash
end)

let cache = Cache.create 64

let lock = Mutex.create ()

let of_program prog =
  Mutex.lock lock;
  match Cache.find_opt cache prog with
  | Some r ->
      Mutex.unlock lock;
      r
  | None ->
      let r =
        match build prog with
        | r -> r
        | exception e ->
            Mutex.unlock lock;
            raise e
      in
      Cache.add cache prog r;
      Mutex.unlock lock;
      r
