(* version 2 added the scheme name to embed/recognize requests; version 3
   added the cluster vocabulary (ping/journal-fetch/blob-fetch/promote and
   their responses, plus the Overloaded shed signal) *)
let version = 3
let max_frame = 64 * 1024 * 1024

(* ---- payload codec ---- *)

module V = Util.Varint

let add_kind buf k = V.add_string buf (Store.Artifact.kind_to_string k)
let add_int_list buf xs =
  V.add buf (List.length xs);
  List.iter (fun x -> V.add_string buf (string_of_int x)) xs

let add_info buf (i : Proto.entry_info) =
  add_kind buf i.Proto.kind;
  V.add_string buf i.key;
  V.add_string buf i.label;
  V.add buf i.size;
  V.add buf i.seq

let malformed msg = raise (V.Malformed msg)

let kind r =
  match Store.Artifact.kind_of_string (V.string r) with
  | Some k -> k
  | None -> malformed "unknown artifact kind"

let int_of_str r =
  let s = V.string r in
  match int_of_string_opt s with Some v -> v | None -> malformed ("bad integer " ^ s)

let int_list r =
  let n = V.varint r in
  if n > V.remaining r then malformed "bad list length";
  List.init n (fun _ -> int_of_str r)

let info r =
  let kind = kind r in
  let key = V.string r in
  let label = V.string r in
  let size = V.varint r in
  let seq = V.varint r in
  { Proto.kind; key; label; size; seq }

let bignum r =
  let s = V.string r in
  try Bignum.of_string s with _ -> malformed ("bad bignum " ^ s)

let finish r v =
  if V.remaining r <> 0 then malformed "trailing bytes";
  v

let with_reader payload f =
  try
    let r = V.reader payload in
    let v = V.byte r in
    if v <> version then Error (Printf.sprintf "protocol version %d, expected %d" v version)
    else Ok (finish r (f r))
  with V.Malformed msg -> Error msg

let payload f =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr version);
  f buf;
  Buffer.contents buf

(* ---- requests ---- *)

let encode_request req =
  payload (fun buf ->
      match req with
      | Proto.Put_artifact { kind; key; label; payload } ->
          Buffer.add_char buf 'P';
          add_kind buf kind;
          V.add_string buf key;
          V.add_string buf label;
          V.add_string buf payload
      | Proto.Get_artifact { kind; key } ->
          Buffer.add_char buf 'G';
          add_kind buf kind;
          V.add_string buf key
      | Proto.Embed { scheme; program; key; bits; pieces; fingerprint; input; seed } ->
          Buffer.add_char buf 'E';
          V.add_string buf scheme;
          V.add_string buf key;
          V.add buf bits;
          V.add buf pieces;
          V.add_string buf (Bignum.to_string fingerprint);
          V.add_string buf (Int64.to_string seed);
          add_int_list buf input;
          V.add_string buf program
      | Proto.Recognize { scheme; source; key; bits; input } ->
          Buffer.add_char buf 'R';
          V.add_string buf scheme;
          (match source with
          | `Bytes b ->
              Buffer.add_char buf 'b';
              V.add_string buf b
          | `Stored d ->
              Buffer.add_char buf 's';
              V.add_string buf d);
          V.add_string buf key;
          V.add buf bits;
          add_int_list buf input
      | Proto.Stats -> Buffer.add_char buf 'S'
      | Proto.List_artifacts -> Buffer.add_char buf 'L'
      | Proto.Ping -> Buffer.add_char buf 'I'
      | Proto.Journal_fetch { from_; max_bytes } ->
          Buffer.add_char buf 'J';
          V.add buf from_;
          V.add buf max_bytes
      | Proto.Blob_fetch { digest } ->
          Buffer.add_char buf 'B';
          V.add_string buf digest
      | Proto.Promote -> Buffer.add_char buf 'M'
      | Proto.Shutdown -> Buffer.add_char buf 'Q')

let decode_request s =
  with_reader s (fun r ->
      match Char.chr (V.byte r) with
      | 'P' ->
          let kind = kind r in
          let key = V.string r in
          let label = V.string r in
          let payload = V.string r in
          Proto.Put_artifact { kind; key; label; payload }
      | 'G' ->
          let kind = kind r in
          let key = V.string r in
          Proto.Get_artifact { kind; key }
      | 'E' ->
          let scheme = V.string r in
          let key = V.string r in
          let bits = V.varint r in
          let pieces = V.varint r in
          let fingerprint = bignum r in
          let seed =
            let s = V.string r in
            match Int64.of_string_opt s with
            | Some v -> v
            | None -> malformed ("bad seed " ^ s)
          in
          let input = int_list r in
          let program = V.string r in
          Proto.Embed { scheme; program; key; bits; pieces; fingerprint; input; seed }
      | 'R' ->
          let scheme = V.string r in
          let source =
            match Char.chr (V.byte r) with
            | 'b' -> `Bytes (V.string r)
            | 's' -> `Stored (V.string r)
            | _ -> malformed "bad recognize source tag"
          in
          let key = V.string r in
          let bits = V.varint r in
          let input = int_list r in
          Proto.Recognize { scheme; source; key; bits; input }
      | 'S' -> Proto.Stats
      | 'L' -> Proto.List_artifacts
      | 'I' -> Proto.Ping
      | 'J' ->
          let from_ = V.varint r in
          let max_bytes = V.varint r in
          Proto.Journal_fetch { from_; max_bytes }
      | 'B' -> Proto.Blob_fetch { digest = V.string r }
      | 'M' -> Proto.Promote
      | 'Q' -> Proto.Shutdown
      | _ -> malformed "bad request tag")

(* ---- responses ---- *)

let encode_response resp =
  payload (fun buf ->
      match resp with
      | Proto.Stored i ->
          Buffer.add_char buf 's';
          add_info buf i
      | Proto.Artifact { info; payload } ->
          Buffer.add_char buf 'a';
          add_info buf info;
          V.add_string buf payload
      | Proto.Embedded { digest; label; bytes_before; bytes_after } ->
          Buffer.add_char buf 'e';
          V.add_string buf digest;
          V.add_string buf label;
          V.add buf bytes_before;
          V.add buf bytes_after
      | Proto.Recognized { value; confidence; registered } ->
          Buffer.add_char buf 'r';
          (match value with
          | None -> Buffer.add_char buf '\x00'
          | Some v ->
              Buffer.add_char buf '\x01';
              V.add_string buf (Bignum.to_string v));
          V.add_string buf (Printf.sprintf "%h" confidence);
          (match registered with
          | None -> Buffer.add_char buf '\x00'
          | Some i ->
              Buffer.add_char buf '\x01';
              add_info buf i)
      | Proto.Stats_reply { entries; journal_bytes; payload_bytes; puts; gets; requests; errors } ->
          Buffer.add_char buf 't';
          List.iter (V.add buf) [ entries; journal_bytes; payload_bytes; puts; gets; requests; errors ]
      | Proto.Listing infos ->
          Buffer.add_char buf 'l';
          V.add buf (List.length infos);
          List.iter (add_info buf) infos
      | Proto.Pong { role; entries; journal_bytes; state_digest } ->
          Buffer.add_char buf 'g';
          V.add_string buf role;
          V.add buf entries;
          V.add buf journal_bytes;
          V.add_string buf state_digest
      | Proto.Journal_data { from_; total; data } ->
          Buffer.add_char buf 'j';
          V.add buf from_;
          V.add buf total;
          V.add_string buf data
      | Proto.Blob_data { digest; payload } ->
          Buffer.add_char buf 'b';
          V.add_string buf digest;
          (match payload with
          | None -> Buffer.add_char buf '\x00'
          | Some p ->
              Buffer.add_char buf '\x01';
              V.add_string buf p)
      | Proto.Promoted -> Buffer.add_char buf 'm'
      | Proto.Overloaded { inflight; limit } ->
          Buffer.add_char buf 'o';
          V.add buf inflight;
          V.add buf limit
      | Proto.Shutting_down -> Buffer.add_char buf 'q'
      | Proto.Error { code; message } ->
          Buffer.add_char buf 'x';
          V.add_string buf code;
          V.add_string buf message)

let decode_response s =
  with_reader s (fun r ->
      match Char.chr (V.byte r) with
      | 's' -> Proto.Stored (info r)
      | 'a' ->
          let i = info r in
          let payload = V.string r in
          Proto.Artifact { info = i; payload }
      | 'e' ->
          let digest = V.string r in
          let label = V.string r in
          let bytes_before = V.varint r in
          let bytes_after = V.varint r in
          Proto.Embedded { digest; label; bytes_before; bytes_after }
      | 'r' ->
          let value = match V.byte r with 0 -> None | _ -> Some (bignum r) in
          let confidence =
            let s = V.string r in
            match float_of_string_opt s with
            | Some f -> f
            | None -> malformed ("bad float " ^ s)
          in
          let registered = match V.byte r with 0 -> None | _ -> Some (info r) in
          Proto.Recognized { value; confidence; registered }
      | 't' ->
          let entries = V.varint r in
          let journal_bytes = V.varint r in
          let payload_bytes = V.varint r in
          let puts = V.varint r in
          let gets = V.varint r in
          let requests = V.varint r in
          let errors = V.varint r in
          Proto.Stats_reply { entries; journal_bytes; payload_bytes; puts; gets; requests; errors }
      | 'l' ->
          let n = V.varint r in
          if n > V.remaining r then malformed "bad listing length";
          Proto.Listing (List.init n (fun _ -> info r))
      | 'g' ->
          let role = V.string r in
          let entries = V.varint r in
          let journal_bytes = V.varint r in
          let state_digest = V.string r in
          Proto.Pong { role; entries; journal_bytes; state_digest }
      | 'j' ->
          let from_ = V.varint r in
          let total = V.varint r in
          let data = V.string r in
          Proto.Journal_data { from_; total; data }
      | 'b' ->
          let digest = V.string r in
          let payload = match V.byte r with 0 -> None | _ -> Some (V.string r) in
          Proto.Blob_data { digest; payload }
      | 'm' -> Proto.Promoted
      | 'o' ->
          let inflight = V.varint r in
          let limit = V.varint r in
          Proto.Overloaded { inflight; limit }
      | 'q' -> Proto.Shutting_down
      | 'x' ->
          let code = V.string r in
          let message = V.string r in
          Proto.Error { code; message }
      | _ -> malformed "bad response tag")

(* ---- framing ---- *)

(* A peer that drained and closed (a killed shard, a gone client) turns
   the next write into EPIPE — which must arrive as the exception the
   retry/failover paths handle, not as a process-killing SIGPIPE.
   Forced on first frame I/O so every transport user is covered. *)
let shield_sigpipe =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

let write_all fd b =
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let write_frame fd payload =
  Lazy.force shield_sigpipe;
  let n = String.length payload in
  if n > max_frame then failwith "Wire.write_frame: frame too large";
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  write_all fd b

let read_exact fd n ~eof_ok =
  let b = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    let r = Unix.read fd b !off (n - !off) in
    if r = 0 then eof := true else off := !off + r
  done;
  if !eof then
    if !off = 0 && eof_ok then None else failwith "Wire.read_frame: unexpected EOF"
  else Some (Bytes.unsafe_to_string b)

let read_frame fd =
  Lazy.force shield_sigpipe;
  match read_exact fd 4 ~eof_ok:true with
  | None -> None
  | Some header ->
      let n = Int32.to_int (String.get_int32_le header 0) land 0xFFFFFFFF in
      if n > max_frame then failwith "Wire.read_frame: frame too large";
      if n = 0 then Some ""
      else read_exact fd n ~eof_ok:false
