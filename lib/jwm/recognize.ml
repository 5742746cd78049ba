type partial = {
  pieces_recovered : int;
  primes_covered : int;
  primes_total : int;
  redundancy_margin : int;
  confidence : float;
}

type outcome = {
  value : Bignum.t option;
  report : Codec.Recombine.report;
  partial : partial;
  trace_branches : int;
  steps : int;
  diagnostic : string option;
}

let partial_of_report params report =
  let m = Codec.Recombine.margin_of_report params report in
  {
    pieces_recovered = m.Codec.Recombine.pieces_used;
    primes_covered = m.Codec.Recombine.primes_covered;
    primes_total = m.Codec.Recombine.primes_total;
    redundancy_margin = m.Codec.Recombine.redundancy_margin;
    confidence = Codec.Recombine.confidence params report;
  }

let outcome_of_report params ~trace_branches ~steps ~diagnostic report =
  {
    value = report.Codec.Recombine.value;
    report;
    partial = partial_of_report params report;
    trace_branches;
    steps;
    diagnostic;
  }

let recognize_branches ?(strides = [ 1; 2 ]) ~passphrase ~watermark_bits events =
  let params = Codec.Params.make ~passphrase ~watermark_bits () in
  let bits = Stackvm.Trace.bits_of_branches events in
  let report = Codec.Recombine.recover_from_bitstring ~strides params bits in
  outcome_of_report params ~trace_branches:(List.length events) ~steps:0 ~diagnostic:None report

let degraded params e =
  (* a corrupt program that the execution engine itself rejects is an
     experimental outcome (the mark is destroyed), not an error *)
  let report = Codec.Recombine.recover params [] in
  outcome_of_report params ~trace_branches:0 ~steps:0
    ~diagnostic:(Some (Printexc.to_string e))
    report

let recognize ?(fuel = 200_000_000) ?(strides = [ 1; 2 ]) ~passphrase ~watermark_bits ~input prog =
  let params = Codec.Params.make ~passphrase ~watermark_bits () in
  (* compiled execution appending packed events straight into a flat
     buffer, bits decoded off the buffer — no event records, no observer,
     no per-event allocation *)
  match
    let code = Stackvm.Compile.of_program prog in
    (* sized for real traces up front: repeated doubling from the default
       capacity would cost more than the traced run itself *)
    let events = Stackvm.Tracebuf.create ~capacity:65536 () in
    let result = Stackvm.Compile.run ~trace:events ~fuel code ~input in
    (events, result)
  with
  | events, result ->
      let bits = Stackvm.Trace.bits_of_buf events in
      let report = Codec.Recombine.recover_from_bitstring ~strides params bits in
      outcome_of_report params
        ~trace_branches:(Stackvm.Tracebuf.length events)
        ~steps:result.Stackvm.Interp.steps ~diagnostic:None report
  | exception e -> degraded params e

(* ---- streaming recognition ----

   The push-based mode folds each branch event, as it happens, through the
   incremental trace-bit decoder into the same {!Codec.Harvester} that
   batch harvest folds over a whole bit-string, and a periodic
   recombination probe lets the caller stop the traced run as soon as the
   recovered value's redundancy margin clears the confidence target.  With
   the probe disabled the final statement list is the batch harvest's, so
   [stream_finish] reproduces batch recognition exactly. *)

type stream = {
  params : Codec.Params.t;
  decoder : Stackvm.Trace.Decoder.t;
  harvester : Codec.Harvester.t;
  check_every : int;
  confidence_target : float;
  mutable since_check : int;
  mutable stmts_at_check : int;
  mutable decided : bool;
  mutable final_report : Codec.Recombine.report option;
}

let stream_start ?(strides = [ 1; 2 ]) ?(confidence_target = 0.9) ?(check_every = 4096)
    ~passphrase ~watermark_bits () =
  let params = Codec.Params.make ~passphrase ~watermark_bits () in
  {
    params;
    decoder = Stackvm.Trace.Decoder.create ();
    harvester = Codec.Harvester.create params ~strides;
    check_every;
    confidence_target;
    since_check = 0;
    stmts_at_check = 0;
    decided = false;
    final_report = None;
  }

let probe s =
  let report = Codec.Recombine.recover s.params (Codec.Harvester.statements s.harvester) in
  if
    report.Codec.Recombine.value <> None
    && Codec.Recombine.confidence s.params report >= s.confidence_target
  then begin
    s.decided <- true;
    s.final_report <- Some report
  end

let stream_push s packed =
  if s.decided then true
  else begin
    Codec.Harvester.push s.harvester (Stackvm.Trace.Decoder.push s.decoder packed);
    s.since_check <- s.since_check + 1;
    if s.check_every > 0 && s.since_check >= s.check_every then begin
      s.since_check <- 0;
      let total = Codec.Harvester.count s.harvester in
      (* recombination is the expensive part: only probe when new evidence
         arrived since the last probe *)
      if total > s.stmts_at_check then begin
        s.stmts_at_check <- total;
        probe s
      end
    end;
    s.decided
  end

let stream_push_event s ~fidx ~pc ~taken =
  stream_push s (Stackvm.Tracebuf.pack ~fidx ~pc ~taken)

let stream_decided s = s.decided

let stream_finish s =
  let report =
    match s.final_report with
    | Some r when s.decided -> r
    | _ -> Codec.Recombine.recover s.params (Codec.Harvester.statements s.harvester)
  in
  outcome_of_report s.params
    ~trace_branches:(Codec.Harvester.length s.harvester)
    ~steps:0 ~diagnostic:None report

let recognize_streaming ?(fuel = 200_000_000) ?strides ?confidence_target ?check_every
    ~passphrase ~watermark_bits ~input prog =
  let s =
    stream_start ?strides ?confidence_target ?check_every ~passphrase ~watermark_bits ()
  in
  match
    let code = Stackvm.Compile.of_program prog in
    Stackvm.Compile.run_streaming ~fuel code ~input ~push:(fun e -> stream_push s e)
  with
  | `Completed result ->
      let o = stream_finish s in
      ({ o with steps = result.Stackvm.Interp.steps }, `Completed)
  | `Stopped steps ->
      let o = stream_finish s in
      ({ o with steps }, `Stopped_early)
  | exception e ->
      let params = Codec.Params.make ~passphrase ~watermark_bits () in
      (degraded params e, `Completed)

let recognizes ?fuel ~passphrase ~watermark_bits ~input ~expected prog =
  match (recognize ?fuel ~passphrase ~watermark_bits ~input prog).value with
  | Some v -> Bignum.equal v expected
  | None -> false
