(** A Domain-based worker pool with a shared work queue.

    [create ~domains ()] spawns [domains] worker domains that drain a
    FIFO queue of submitted tasks.  Each task's exceptions are isolated
    into its own future — one trapped program fails one job, never the
    pool — and results are retrieved in submission order with {!map}, so
    pooled execution is observationally identical to sequential
    execution for deterministic tasks.

    OCaml 5.1 domains are heavyweight (one system thread each), and idle
    ones still take part in every minor collection.  A persistent pool
    suits a caller that keeps working while it waits, such as the
    server's accept loop; a caller that only waits for a batch should use
    {!run_list}, which counts it as a worker. *)

type t

type 'a future

val create : ?domains:int -> unit -> t
(** Spawn the workers.  [domains] defaults to
    [Domain.recommended_domain_count () - 1] (at least 1): the caller's
    domain keeps coordinating while workers compute. *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task.  Raises [Invalid_argument] after {!shutdown}. *)

val await : 'a future -> ('a, exn) result
(** Block until the task ran; a task that raised yields [Error]. *)

val await_exn : 'a future -> 'a
(** Like {!await} but re-raises the task's exception. *)

val map : t -> f:('a -> 'b) -> 'a list -> ('b, exn) result list
(** Submit [f x] for every element, then await all; the result list is in
    input order regardless of scheduling. *)

val run_list : ?domains:int -> (unit -> 'a) list -> ('a, exn) result list
(** One-shot fan-out: run the thunks on at most [domains] domains, the
    calling domain included, and return their results in submission
    order, each thunk's exception isolated in its own [Error].  It spawns
    [min domains (List.length thunks) - 1] helper domains for this call
    only; the caller claims thunks from the same atomic index as the
    helpers, then joins them.  [domains <= 1] and one-thunk lists run
    inline on the caller (the sequential reference path).

    Counting the caller is what makes [~domains:2] pay on a 2-vCPU
    machine (OCaml 5.1.1): two workers plus a waiting caller is three
    domains on two cores, and eight jwm embeds from one captured trace
    took 14.27 ms that way against 5.35 ms serially and 3.77 ms with one
    helper plus the caller.  Helpers are not kept between calls because
    an idle domain is not free: the OCaml 5 minor collector stops every
    domain, so an allocation-heavy loop took 1.15 ms alone and 4.73 ms
    while an idle 2-worker pool existed, and gzip's interpreter snapshot
    capture went from 41.8 to 48.6 ms beside one idle helper.  Spawning
    is cheap by comparison: 0.48 ms per call over trivial thunks.  A
    [run_list] nested inside a thunk spawns its own helpers and
    completes. *)

val shutdown : t -> unit
(** Finish queued work, then join every worker.  Idempotent. *)
