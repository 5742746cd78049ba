type outcome = {
  value : Bignum.t option;
  confidence : float;
  copies_found : int;
  candidates : int;
  trace_branches : int;
  steps : int;
  diagnostic : string option;
}

(* Per static branch site, its taken-bits in dynamic order, sites in order
   of first occurrence.  Pass one gives every event the dense id of its
   site from the flat site table; pass two drops each bit into its site's
   pre-sized stream. *)
let streams buf =
  let n = Stackvm.Tracebuf.length buf in
  let sites = Stackvm.Trace.Sites.create () in
  let id_of = Array.make n 0 and counts = Array.make n 0 in
  for i = 0 to n - 1 do
    let id = Stackvm.Trace.Sites.id sites (Stackvm.Tracebuf.get buf i) in
    id_of.(i) <- id;
    counts.(id) <- counts.(id) + 1
  done;
  let nsites = Stackvm.Trace.Sites.count sites in
  let streams = Array.init nsites (fun id -> Bytes.create counts.(id)) in
  let fill = Array.make nsites 0 in
  for i = 0 to n - 1 do
    let id = id_of.(i) in
    let taken = Stackvm.Tracebuf.taken (Stackvm.Tracebuf.get buf i) in
    Bytes.unsafe_set streams.(id) fill.(id) (if taken then '\001' else '\000');
    fill.(id) <- fill.(id) + 1
  done;
  streams

(* Candidate payload windows after every sync match, on the stream and on
   its complement (branch-sense inversion flips every bit of a site): a
   rolling window over the stream is compared with the sync word and with
   its complement, only where a whole payload still fits after it.  Direct
   matches come first, then complement matches, each in ascending
   position — the order the vote's tie-breaking depends on. *)
let windows ~need ~sync stream acc =
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

let decode ~m ~sync buf =
  let trace_branches = Stackvm.Tracebuf.length buf in
  let need = Encode.payload_bits m + Encode.checksum_bits in
  let wins = Array.fold_right (windows ~need ~sync) (streams buf) [] in
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
  let m = Encode.order_for_bits watermark_bits in
  let sync =
    List.fold_left (fun w b -> (w lsl 1) lor if b then 1 else 0) 0 (Encode.sync_word ~key:passphrase)
  in
  decode ~m ~sync buf

let recognize_branches ~passphrase ~watermark_bits events =
  recognize_buf ~passphrase ~watermark_bits (Stackvm.Trace.buf_of_branches events)

let recognize ?(fuel = 200_000_000) ~passphrase ~watermark_bits ~input prog =
  match Stackvm.Trace.record ~fuel prog ~input with
  | buf, result ->
      let outcome = recognize_buf ~passphrase ~watermark_bits buf in
      { outcome with steps = result.Stackvm.Interp.steps }
  | exception _ ->
      {
        value = None;
        confidence = 0.;
        copies_found = 0;
        candidates = 0;
        trace_branches = 0;
        steps = 0;
        diagnostic = Some "program failed to run";
      }

let recognizes ?fuel ~passphrase ~watermark_bits ~input ~expected prog =
  match (recognize ?fuel ~passphrase ~watermark_bits ~input prog).value with
  | Some v -> Bignum.equal v expected
  | None -> false
