(** What differs between the two tracks, in one place.

    A stack-VM program (the paper's §3 bytecode track) and a native
    binary (§4, branch functions) are encoded, compiled, traced, attacked
    and located differently.  Every such per-track step lives here, so the
    batch engine, the audit, the tournament and the CLI hand over a
    {!Watermarker.carrier} or a {!Watermarker.track} and never match on
    one. *)

open Watermarker

val encode : carrier -> string
(** Canonical bytes: {!Stackvm.Serialize.encode} for a VM program, the
    {!Nativesim.Binary} encoding of a native binary (assembly is assembled
    first). *)

val decode : track -> string -> carrier option
(** The carrier {!encode} wrote, read back as the track's artifact: a VM
    program ({!Stackvm.Serialize.decode_opt}) or a native binary.  [None]
    when the bytes do not decode. *)

val compile : track -> string -> carrier
(** A MiniC source compiled for the track (native: to assembly, which is
    what native embedders rewrite). *)

val of_workload : track -> Workloads.Workload.t -> carrier
(** A built-in workload's program on the track (memoized per workload). *)

val keyed : carrier -> bool
(** Whether a passphrase means anything on the carrier's track: native
    embedding derives nothing from one. *)

val branch_events : spec -> carrier -> Stackvm.Tracebuf.t
(** The packed branch events a {!WATERMARKER.sink} sees when it runs the
    program itself ({!Stackvm.Trace.record}, [spec.fuel] defaulting to 200
    million steps).  VM carriers only. *)

(** {2 Attacks} *)

val attack_names : track -> string list
(** ["identity"] (applies nothing), then every attack the track knows:
    {!Vmattacks.Attacks.all} on the VM track, the {!Nattacks} table on
    the native one. *)

val attack : string -> spec -> aux:string -> carrier -> carrier
(** Apply a named attack to an embedding's carrier, seeded by
    [spec.seed].  Native attacks that trace the program read the region
    window from the embedding's [aux] ({!Nwm_adapter.window}).  Raises
    [Failure] on a name the carrier's track does not know. *)

(** {2 The audit's locate step} *)

type located = {
  passes : string list;  (** the analyses that ran *)
  marked : string list;
      (** ground truth: the functions the embedder added or rewrote, or
          ["region"] on the native track *)
  flagged : string list;  (** implicated on the marked program *)
  clean_flagged : string list;  (** implicated on the clean program *)
  ndiags : int;  (** diagnostics on the marked program *)
}

val locate : passes:string list -> clean:carrier -> embedding -> located
(** Run the static locator over the clean carrier and the embedding.  On
    the VM track: the declared {!Analysis.Locator} passes that exist
    (the default passes when none does), with the function diff as ground
    truth.  On the native track: {!Analysis.Nlint}, with the embedded
    region as the single marked unit. *)
