(* Journal-shipping follower.

   The leader's journal is an append-only file of CRC-framed records
   behind a magic header; replication is therefore just "ship the bytes".
   The follower tracks one number — the leader-journal offset it has
   applied — fetches byte-ranges from there, keeps only whole frames
   ([Journal.valid_frames]), appends them verbatim to its own journal,
   and fetches any blob a shipped record references.  A chunk torn
   mid-frame (network, fault injection) is simply not yet applied: the
   offset stays at the last frame boundary and the next sync re-fetches.

   The applied offset is persisted in [root/replica.offset] separately
   from the local journal size, because local snapshots ({!snapshot} =
   registry compaction) rewrite the local journal without changing what
   has been applied from the leader.  A leader total smaller than the
   applied offset means the leader itself compacted: the follower
   restarts from scratch (blobs are content-addressed, so they survive
   and need no refetch). *)

type t = {
  root : string;
  leader : string;
  chunk_bytes : int;
  fault : Fault.Inject.plan;
  mutable applied : int;
  mutable synced_once : bool;
  mutable ship_calls : int;  (* salts injected tears, so a tear at one offset cannot recur forever *)
  pending_blobs : (string, unit) Hashtbl.t;
      (* digests referenced by applied records whose payloads have not
         landed yet — retried every sync, because the applied offset
         moves when frames land, not when their blobs do *)
}

type progress = {
  applied : int;
  leader_total : int;
  records : int;
  blobs_fetched : int;
  torn : bool;
  resynced : bool;
}

let offset_path root = Filename.concat root "replica.offset"
let journal_path root = Filename.concat root "journal.pmj"

let read_offset root =
  try
    let ic = open_in (offset_path root) in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Option.value ~default:0 (int_of_string_opt (String.trim (input_line ic))))
  with Sys_error _ | End_of_file -> 0

let write_offset root v =
  let tmp = offset_path root ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (string_of_int v);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp (offset_path root)

let create ?(chunk_bytes = 4 * 1024 * 1024) ?(fault = Fault.Inject.none) ~root ~leader () =
  Store.Registry.mkdir_p root;
  {
    root;
    leader;
    chunk_bytes;
    fault;
    applied = read_offset root;
    synced_once = false;
    ship_calls = 0;
    pending_blobs = Hashtbl.create 16;
  }

let applied (t : t) = t.applied
let pending_blobs (t : t) = Hashtbl.length t.pending_blobs

let append_local (t : t) bytes =
  let path = journal_path t.root in
  let fresh = not (Sys.file_exists path) in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let payload = if fresh then Store.Journal.magic ^ bytes else bytes in
      let b = Bytes.of_string payload in
      let off = ref 0 in
      while !off < Bytes.length b do
        off := !off + Unix.write fd b !off (Bytes.length b - !off)
      done;
      Unix.fsync fd)

let reset_local (t : t) =
  (try Sys.remove (journal_path t.root) with Sys_error _ -> ());
  t.applied <- 0;
  write_offset t.root 0

let fetch_blob client digest =
  match Service.Client.call client (Service.Proto.Blob_fetch { digest }) with
  | Service.Proto.Blob_data { payload = Some p; _ } -> Some p
  | _ -> None

(* One shipping round over an open client.  Returns the records applied
   this round so the caller can fetch referenced blobs. *)
let ship (t : t) client =
  let magic_len = String.length Store.Journal.magic in
  match
    Service.Client.call client
      (Service.Proto.Journal_fetch { from_ = t.applied; max_bytes = t.chunk_bytes })
  with
  | Service.Proto.Journal_data { total; data; _ } ->
      if total < t.applied then begin
        (* the leader compacted beneath us: start over *)
        reset_local t;
        Ok ([], total, false, true)
      end
      else begin
        t.ship_calls <- t.ship_calls + 1;
        let data, torn_injected =
          Fault.Inject.journal_chunk t.fault
            ~salt:(Printf.sprintf "ship:%s:%d:%d" t.root t.applied t.ship_calls)
            data
        in
        (* at offset 0 the chunk leads with the magic header; frames follow *)
        let frame_start =
          if t.applied = 0 then
            if String.length data >= magic_len && String.sub data 0 magic_len = Store.Journal.magic
            then Some magic_len
            else None (* not even a whole header shipped yet *)
          else Some 0
        in
        match frame_start with
        | None -> Ok ([], total, torn_injected, false)
        | Some start ->
            let chunk = String.sub data start (String.length data - start) in
            let records, good = Store.Journal.valid_frames chunk in
            if good > 0 then begin
              append_local t (String.sub chunk 0 good);
              t.applied <- t.applied + (if t.applied = 0 then magic_len else 0) + good;
              write_offset t.root t.applied
            end
            else if t.applied = 0 && String.length data >= magic_len && records = [] then begin
              (* a bare header with no complete frame yet still counts *)
              append_local t "";
              t.applied <- magic_len;
              write_offset t.root t.applied
            end;
            let torn = torn_injected || good < String.length chunk in
            Ok (records, total, torn, false)
      end
  | Service.Proto.Error { code; message } -> Error (Printf.sprintf "leader error %s: %s" code message)
  | _ -> Error "leader sent an unexpected response to journal-fetch"

let sync ?(deadline = 2.0) (t : t) =
  match Service.Client.with_client ~deadline t.leader (fun client ->
            let records = ref [] in
            let total = ref 0 in
            let torn = ref false in
            let resynced = ref false in
            let continue = ref true in
            let outcome = ref (Ok ()) in
            (* loop until we are caught up with the leader's total *)
            while !continue do
              match ship t client with
              | Error e ->
                  outcome := Error e;
                  continue := false
              | Ok (recs, tot, tor, res) ->
                  records := !records @ recs;
                  total := tot;
                  torn := !torn || tor;
                  resynced := !resynced || res;
                  (* a torn chunk will not finish this round: stop rather
                     than refetch the same tear forever *)
                  if tor || (recs = [] && not res) || t.applied >= tot then continue := false
            done;
            match !outcome with
            | Error e -> Error e
            | Ok () ->
                (* queue every blob the shipped records reference, then
                   work the whole pending set — including blobs earlier
                   syncs failed to fetch *)
                List.iter
                  (fun body ->
                    match Store.Artifact.decode body with
                    | Some (Store.Artifact.Put e) ->
                        let digest = e.Store.Artifact.blob in
                        if not (Store.Registry.blob_exists ~root:t.root ~digest) then
                          Hashtbl.replace t.pending_blobs digest ()
                    | Some (Store.Artifact.Delete _) | None -> ())
                  !records;
                let fetched = ref 0 in
                let missing = ref [] in
                List.iter
                  (fun digest ->
                    if Store.Registry.blob_exists ~root:t.root ~digest then
                      Hashtbl.remove t.pending_blobs digest
                    else
                      match fetch_blob client digest with
                      | Some payload -> (
                          match Store.Registry.import_blob ~root:t.root ~digest payload with
                          | Ok () ->
                              incr fetched;
                              Hashtbl.remove t.pending_blobs digest
                          | Error e -> missing := e :: !missing)
                      | None -> missing := digest :: !missing)
                  (Hashtbl.fold (fun d () acc -> d :: acc) t.pending_blobs []);
                t.synced_once <- true;
                if !missing <> [] then
                  Error
                    (Printf.sprintf "%d blob(s) unfetchable (first: %s)" (List.length !missing)
                       (List.hd !missing))
                else
                  Ok
                    {
                      applied = t.applied;
                      leader_total = !total;
                      records = List.length !records;
                      blobs_fetched = !fetched;
                      torn = !torn;
                      resynced = !resynced;
                    })
  with
  | result -> result
  | exception Service.Client.Unavailable msg -> Error ("leader unavailable: " ^ msg)
  | exception Service.Client.Timed_out msg -> Error ("leader timed out: " ^ msg)
  | exception Failure msg -> Error msg

(* Bound replay time: when the local journal has grown past [threshold],
   open the registry (replaying it) and compact.  Entry sequence numbers
   survive compaction, so the state digest — and hence replay
   equivalence with the leader — is unchanged; the applied offset tracks
   the LEADER's journal and is untouched. *)
let snapshot ?(threshold = 8 * 1024 * 1024) (t : t) =
  let path = journal_path t.root in
  let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
  if size <= threshold then None
  else begin
    let reg = Store.Registry.open_store ~root:t.root () in
    let c = Store.Registry.compact reg in
    Store.Registry.close reg;
    Some c
  end
