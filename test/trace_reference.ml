(* The list-based trace forms the packed buffer replaced, kept verbatim as
   the oracle for their buffer successors: the fault injector over branch
   event lists and the salvage parser that loaded a saved trace as one.
   {!Fault.Inject.branches} must corrupt a {!Stackvm.Tracebuf} exactly as
   [inject] corrupts the same events as a list (same events, same fault
   count), and {!Stackvm.Trace.salvage_events} must salvage the same
   events and report the same diagnostic as [salvage] on any bytes. *)

module Spec = Fault.Spec

type branch_event = Stackvm.Trace.branch_event = { fidx : int; pc : int; taken : bool }

let rate = Fault.Inject.rate
let rng_for = Fault.Inject.rng_for
let roll rng r = r > 0.0 && Util.Prng.float rng 1.0 < r

let inject plan ~salt events =
  let drop = rate plan (function Spec.Trace_drop r -> Some r | _ -> None) in
  let dup = rate plan (function Spec.Trace_dup r -> Some r | _ -> None) in
  let flip = rate plan (function Spec.Trace_flip r -> Some r | _ -> None) in
  let trunc = rate plan (function Spec.Trace_trunc r -> Some r | _ -> None) in
  if drop = 0.0 && dup = 0.0 && flip = 0.0 && trunc = 0.0 then (events, 0)
  else begin
    let rng = rng_for plan ~salt in
    let applied = ref 0 in
    let out = ref [] in
    List.iter
      (fun (ev : Stackvm.Trace.branch_event) ->
        if roll rng drop then incr applied
        else begin
          let ev =
            if roll rng flip then begin
              incr applied;
              { ev with Stackvm.Trace.taken = not ev.Stackvm.Trace.taken }
            end
            else ev
          in
          out := ev :: !out;
          if roll rng dup then begin
            incr applied;
            out := ev :: !out
          end
        end)
      events;
    let out = List.rev !out in
    let out =
      if trunc = 0.0 then out
      else begin
        let n = List.length out in
        let keep = n - int_of_float (Float.round (float_of_int n *. trunc)) in
        applied := !applied + (n - max 0 keep);
        List.filteri (fun i _ -> i < keep) out
      end
    in
    (out, !applied)
  end

exception Malformed of string

let salvage s =
  if String.length s < 4 || String.sub s 0 4 <> "TRC1" then
    ([], Some "bad magic (expected TRC1)")
  else begin
    let pos = ref 4 in
    let byte () =
      if !pos >= String.length s then raise (Malformed "truncated");
      let b = Char.code s.[!pos] in
      incr pos;
      b
    in
    let varint () =
      let rec go shift acc =
        if shift > 62 then raise (Malformed "varint overflow");
        let b = byte () in
        let acc = acc lor ((b land 0x7F) lsl shift) in
        if b land 0x80 <> 0 then go (shift + 7) acc
        else if acc < 0 then raise (Malformed "negative varint")
        else acc
      in
      go 0 0
    in
    let out = ref [] in
    let count = ref 0 in
    match
      let n = varint () in
      (* decode sequentially: iteration order must follow the byte stream *)
      for _ = 1 to n do
        let fidx = varint () in
        let pc = varint () in
        let taken = varint () = 1 in
        out := { fidx; pc; taken } :: !out;
        incr count
      done;
      if !pos <> String.length s then
        Some (Printf.sprintf "%d trailing byte(s) after %d event(s)" (String.length s - !pos) n)
      else None
    with
    | diag -> (List.rev !out, diag)
    | exception Malformed reason ->
        ( List.rev !out,
          Some (Printf.sprintf "%s at byte %d; salvaged %d event(s)" reason !pos !count) )
  end

(* Comparison helpers: a buffer and a list agree when the list, packed
   event by event, is the buffer's packed contents. *)
let packed events = List.map (fun { fidx; pc; taken } -> Stackvm.Tracebuf.pack ~fidx ~pc ~taken) events

let inject_agrees plan ~salt events =
  let via_list, n_list = inject plan ~salt events in
  let via_buf, n_buf = Fault.Inject.branches plan ~salt (Stackvm.Trace.buf_of_branches events) in
  n_list = n_buf && packed via_list = Stackvm.Tracebuf.to_packed_list via_buf

let salvage_agrees s =
  let ref_events, ref_diag = salvage s in
  let buf, diag = Stackvm.Trace.salvage_events s in
  diag = ref_diag && packed ref_events = Stackvm.Tracebuf.to_packed_list buf
