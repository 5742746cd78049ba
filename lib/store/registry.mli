(** The persistent watermark registry: a content-addressed, sharded
    on-disk store for watermark artifacts.

    Layout under [root]:

    {v
    root/journal.pmj          append-only CRC-checked index journal
    root/objects/ab/abc….blob payloads, content-addressed by digest,
                              sharded by the first two digest characters
    v}

    Payloads are written first (tmp + fsync + rename, so a blob is either
    absent or whole), then the index {!Artifact.entry} is committed to the
    journal with fsync.  The in-memory index is rebuilt by journal replay
    on {!open_store}; a torn journal tail left by a crash mid-append is
    truncated during replay (see {!Journal}), so a killed writer loses at
    most the record it was writing and never corrupts earlier ones.
    Within one [(kind, key)] slot the record with the highest sequence
    number wins; {!compact} rewrites the journal to live entries only and
    deletes unreferenced blobs.

    All operations are thread-safe; one process should own a root at a
    time (there is no inter-process lock). *)

type t

exception Corrupt of string
(** Wholesale corruption: bad journal magic, or a payload whose bytes no
    longer match their content address (see {!get}). *)

type recovery = {
  replayed : int;  (** intact journal records replayed on open *)
  truncated_bytes : int;  (** torn tail bytes discarded on open *)
  skipped : int;  (** CRC-valid records the codec could not decode *)
}

type stats = {
  entries : int;  (** live index entries *)
  journal_bytes : int;
  payload_bytes : int;  (** summed live payload sizes *)
  puts : int;
  gets : int;
  hits : int;  (** subset of [gets] that found an entry *)
  deletes : int;
}

type compaction = { live : int; dropped_records : int; blobs_removed : int }

val open_store : ?fsync:bool -> root:string -> unit -> t
(** Create [root] (and its shard directories) if missing, replay the
    journal, recover any torn tail.  [fsync] (default [true]) controls
    commit durability; disable only for benchmarks. *)

val root : t -> string

val recovery : t -> recovery
(** What replay found when this handle was opened. *)

val put : t -> kind:Artifact.kind -> key:string -> ?label:string -> string -> Artifact.entry
(** Store a payload under [(kind, key)], overwriting any previous entry
    in that slot (the old payload remains until {!compact}).  Identical
    payloads share one blob. *)

val get : t -> kind:Artifact.kind -> key:string -> (string * Artifact.entry, [ `Missing | `Damaged of string ]) result
(** Fetch the payload and entry.  [`Damaged] means the entry exists but
    its blob is missing or fails digest verification — storage rot, not
    a cache miss. *)

val find : t -> kind:Artifact.kind -> key:string -> Artifact.entry option
(** Index lookup only; does not touch the blob or the [gets] counter. *)

val delete : t -> kind:Artifact.kind -> key:string -> bool
(** Remove the entry (journalled); [false] if it was not present. *)

val list : t -> Artifact.entry list
(** Live entries in increasing sequence order. *)

val stats : t -> stats

val compact : t -> compaction
(** Rewrite the journal to exactly the live entries and delete every
    blob no live entry references.  Atomic with respect to crashes: the
    new journal is fsynced before it replaces the old one. *)

(** {1 Replication primitives}

    The building blocks for journal-shipping replication (see
    [Shard.Follower]): a leader exposes raw journal byte-ranges and blob
    payloads; a follower imports them and compares {!state_digest}. *)

val state_digest : t -> string
(** Digest over the live logical state (sorted entries' kind, key, blob,
    size and sequence).  Two registries that replayed the same records
    agree on it even if their journals differ on disk — compaction
    preserves entries, so it also preserves the digest. *)

val read_journal : t -> from_:int -> max_bytes:int -> string * int
(** [read_journal t ~from_ ~max_bytes] returns up to [max_bytes] raw
    journal bytes starting at absolute offset [from_] (offset 0 is the
    magic header), plus the journal's total size.  A shrinking total
    relative to a follower's applied offset signals compaction upstream:
    the follower must resync from scratch. *)

val blob_payload : t -> digest:string -> string option
(** The verified payload for [digest], or [None] if absent or damaged.
    Unlike {!get} this is keyed by content address, not [(kind, key)]. *)

val blob_exists : root:string -> digest:string -> bool
(** Whether a blob file for [digest] exists under [root] — usable before
    a registry handle exists (a follower checks before fetching). *)

val import_blob : root:string -> digest:string -> string -> (unit, string) result
(** Write [payload] as the blob for [digest] (tmp + fsync + rename),
    verifying the content address first; [Error] names the mismatch. *)

val sync : t -> unit
(** fsync the journal — the graceful-drain barrier for servers opened
    with [fsync:false]. *)

val close : t -> unit

val mkdir_p : string -> unit
(** Create a directory and its missing parents; one that appears while
    this runs (another process creating it) is not an error. *)
