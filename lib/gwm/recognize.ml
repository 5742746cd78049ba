type outcome = {
  value : Bignum.t option;
  confidence : float;
  copies_found : int;
  candidates : int;
  trace_branches : int;
  steps : int;
  diagnostic : string option;
}

(* ---- recognition as a stream ----

   Each event's site gets its dense id from the flat site table on first
   occurrence, and the event's taken-bit goes onto that site's byte
   stream, so the per-site streams exist, in site order, when the run
   ends.  Decoding them needs every bit, so a stream never decides early. *)

type stream = {
  m : int;
  sync : int;
  sites : Stackvm.Trace.Sites.t;
  mutable streams : Buffer.t array;  (* per site id, its bits so far *)
}

let stream_start ~passphrase ~watermark_bits =
  {
    m = Encode.order_for_bits watermark_bits;
    sync =
      List.fold_left
        (fun w b -> (w lsl 1) lor if b then 1 else 0)
        0 (Encode.sync_word ~key:passphrase);
    sites = Stackvm.Trace.Sites.create ();
    streams = Array.init 64 (fun _ -> Buffer.create 16);
  }

let stream_push s packed =
  let id = Stackvm.Trace.Sites.id s.sites packed in
  if id = Array.length s.streams then
    s.streams <- Array.append s.streams (Array.init id (fun _ -> Buffer.create 16));
  Buffer.add_char s.streams.(id) (if Stackvm.Tracebuf.taken packed then '\001' else '\000')

(* Candidate payload windows after every sync match, on the stream and on
   its complement (branch-sense inversion flips every bit of a site): a
   rolling window over the stream is compared with the sync word and with
   its complement, only where a whole payload still fits after it.  Direct
   matches come first, then complement matches, each in ascending
   position — the order the vote's tie-breaking depends on. *)
let windows ~need ~sync stream acc =
  let stream = Buffer.to_bytes stream in
  let width = Encode.sync_bits in
  let mask = (1 lsl width) - 1 in
  let bit k = Bytes.unsafe_get stream k = '\001' in
  let window start flip = List.init need (fun k -> bit (start + k) <> flip) in
  let direct = ref [] and inverse = ref [] in
  let w = ref 0 in
  for k = 0 to Bytes.length stream - need - 1 do
    w := ((!w lsl 1) lor if bit k then 1 else 0) land mask;
    if k >= width - 1 then
      if !w = sync then direct := (k + 1) :: !direct
      else if !w = sync lxor mask then inverse := (k + 1) :: !inverse
  done;
  let collect flip starts acc = List.fold_left (fun acc start -> window start flip :: acc) acc starts in
  collect false !direct (collect true !inverse acc)

let majority_vote values =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun v ->
      let k = Bignum.to_string v in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    values;
  Hashtbl.fold
    (fun k n best ->
      match best with
      | Some (_, bn) when bn >= n -> best
      | _ -> Some (Bignum.of_string k, n))
    tbl None

let bitwise_majority wins =
  match wins with
  | [] -> None
  | first :: _ ->
      let n = List.length first in
      let counts = Array.make n 0 and total = List.length wins in
      List.iter
        (List.iteri (fun k b -> if b then counts.(k) <- counts.(k) + 1))
        wins;
      Some (List.init n (fun k -> 2 * counts.(k) > total))

let stream_finish { m; sync; sites; streams } =
  let need = Encode.payload_bits m + Encode.checksum_bits in
  let nsites = Stackvm.Trace.Sites.count sites in
  let trace_branches = ref 0 and wins = ref [] in
  for id = nsites - 1 downto 0 do
    trace_branches := !trace_branches + Buffer.length streams.(id);
    wins := windows ~need ~sync streams.(id) !wins
  done;
  let wins = !wins and trace_branches = !trace_branches in
  let candidates = List.length wins in
  let decoded =
    List.filter_map
      (fun w -> match Encode.decode_payload ~m w with Ok v -> Some v | Error _ -> None)
      wins
  in
  match majority_vote decoded with
  | Some (v, n) ->
      let agree = float_of_int n /. float_of_int (List.length decoded) in
      let damp = float_of_int n /. float_of_int (n + 1) in
      {
        value = Some v;
        confidence = agree *. damp;
        copies_found = n;
        candidates;
        trace_branches;
        steps = 0;
        diagnostic = None;
      }
  | None -> (
      (* No window decoded cleanly: per-bit majority across the aligned
         windows may still cancel independent flips. *)
      match bitwise_majority wins with
      | Some bits when Result.is_ok (Encode.decode_payload ~m bits) ->
          let v = Result.get_ok (Encode.decode_payload ~m bits) in
          {
            value = Some v;
            confidence = 0.3;
            copies_found = 0;
            candidates;
            trace_branches;
            steps = 0;
            diagnostic = Some "recovered by per-bit majority only";
          }
      | _ ->
          {
            value = None;
            confidence = 0.;
            copies_found = 0;
            candidates;
            trace_branches;
            steps = 0;
            diagnostic =
              Some
                (if trace_branches = 0 then "empty trace"
                 else if candidates = 0 then "sync word not found in any branch stream"
                 else "no candidate window decoded");
          })

let recognize_buf ~passphrase ~watermark_bits buf =
  let s = stream_start ~passphrase ~watermark_bits in
  Stackvm.Tracebuf.iter (stream_push s) buf;
  stream_finish s

let recognize_branches ~passphrase ~watermark_bits events =
  let s = stream_start ~passphrase ~watermark_bits in
  List.iter
    (fun { Stackvm.Trace.fidx; pc; taken } -> stream_push s (Stackvm.Tracebuf.pack ~fidx ~pc ~taken))
    events;
  stream_finish s

let recognize ?(fuel = 200_000_000) ~passphrase ~watermark_bits ~input prog =
  let s = stream_start ~passphrase ~watermark_bits in
  let push e =
    stream_push s e;
    false
  in
  match Stackvm.Compile.run_streaming ~fuel (Stackvm.Compile.of_program prog) ~input ~push with
  | `Completed result -> { (stream_finish s) with steps = result.Stackvm.Interp.steps }
  | `Stopped steps -> { (stream_finish s) with steps }
  | exception _ ->
      { (stream_finish (stream_start ~passphrase ~watermark_bits)) with diagnostic = Some "program failed to run" }

let recognizes ?fuel ~passphrase ~watermark_bits ~input ~expected prog =
  match (recognize ?fuel ~passphrase ~watermark_bits ~input prog).value with
  | Some v -> Bignum.equal v expected
  | None -> false
