(** Content-addressed memoization for the batch engine.

    Two stores, both keyed by hex content digests (see {!Job.digest} /
    {!Job.trace_digest}):

    - a {e bytes} store for serialized artifacts (saved traces, embedded
      programs, encoded job outcomes), held in a bounded in-memory LRU
      with two optional persistent tiers below it: a flat on-disk spill
      directory, and a {!Store.Registry} (entries of kind
      [Cache_entry]), so a later process re-running the same batch pays
      nothing;
    - a {e prepared-host} store (stage ["trace-mem"]) for hosts made
      ready for embedding ({!Scheme.Watermarker.WATERMARKER.prepare}),
      keyed by {!Job.trace_digest}: the snapshot trace and everything
      else embedding derives from the host alone, shared by every
      fingerprint of a fleet.  These are in-memory values (closures over
      snapshots the byte serialization deliberately drops) and never
      spill.

    The in-memory tier evicts least-recently-used when [capacity] is
    exceeded; evicted entries survive in whichever persistent tiers are
    configured.  The registry tier is fail-soft: storage errors degrade
    the cache, they never fail a computation.

    All operations are thread-safe and may be called concurrently from
    pool domains.  Computation happens {e outside} the lock; if two
    domains race on the same missing key, both compute but the first
    insertion wins and every caller is handed the winning value, so
    results stay deterministic. *)

type stats = {
  hits : int;  (** lookups answered from memory, disk, or the registry *)
  misses : int;  (** lookups that had to compute *)
  disk_loads : int;  (** subset of [hits] served from the spill directory *)
  store_loads : int;  (** subset of [hits] served from the registry tier *)
  evictions : int;  (** in-memory entries dropped by the capacity bound *)
}

type t

val create : ?spill_dir:string -> ?store:Store.Registry.t -> ?capacity:int -> unit -> t
(** [capacity] (default 4096) bounds each in-memory store, evicting
    least-recently-used first; persisted bytes survive eviction.
    [spill_dir] is created if missing.  [store], when given, is a shared
    registry the caller owns (the cache never closes it). *)

val with_bytes : ?events:Events.t -> t -> stage:string -> key:string -> (unit -> string) -> string
(** [with_bytes t ~stage ~key compute] returns the cached value for
    [(stage, key)] or runs [compute], stores and returns its result.
    Emits {!Events.Cache_hit} / {!Events.Cache_miss} (and
    {!Events.Cache_evict} for entries the insert pushed out). *)

val find_bytes : ?events:Events.t -> t -> stage:string -> key:string -> string option
(** Lookup without computing (still counts and reports hit/miss). *)

val mem_bytes : t -> stage:string -> key:string -> bool
(** Silent presence check (memory, disk, or registry); affects neither
    {!stats} nor the event stream. *)

val store_bytes : ?events:Events.t -> t -> stage:string -> key:string -> string -> unit
(** Insert (first insertion wins; re-inserting an existing key is a
    no-op), writing through to the spill directory and registry tier
    when configured. *)

val with_prepared :
  ?events:Events.t ->
  t ->
  key:string ->
  (unit -> Scheme.Watermarker.prepared) ->
  Scheme.Watermarker.prepared
(** Memoize a prepared host under stage ["trace-mem"]: one miss for the
    first job on a (program bytes, input, fuel) triple, a hit for every
    later one.  The key must not name the fingerprint, the passphrase or
    the width — the prepared host keeps whatever depends on those itself. *)

val stats : t -> stats
