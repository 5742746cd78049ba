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

(* ---- recognition as a stream ----

   Every mode folds each branch event, as it happens, through the
   incremental trace-bit decoder into the {!Codec.Harvester} that batch
   harvest folds over a whole bit-string.  A periodic recombination probe
   lets the caller stop the traced run as soon as the recovered value's
   redundancy margin clears the confidence target.  Batch recognition is
   the stream with no probe: one run, no event buffer, no bit-string, and
   the final statement list is the batch harvest's. *)

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

let stream_finish s =
  let report =
    match s.final_report with
    | Some r when s.decided -> r
    | _ -> Codec.Recombine.recover s.params (Codec.Harvester.statements s.harvester)
  in
  outcome_of_report s.params
    ~trace_branches:(Codec.Harvester.length s.harvester)
    ~steps:0 ~diagnostic:None report

let degraded params e =
  (* a corrupt program that the execution engine itself rejects is an
     experimental outcome (the mark is destroyed), not an error *)
  let report = Codec.Recombine.recover params [] in
  outcome_of_report params ~trace_branches:0 ~steps:0
    ~diagnostic:(Some (Printexc.to_string e))
    report

(* Compile once and run once, each branch event pushed into the stream. *)
let run_stream ?(fuel = 200_000_000) s ~input prog =
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
  | exception e -> (degraded s.params e, `Completed)

let recognize ?fuel ?strides ~passphrase ~watermark_bits ~input prog =
  let s = stream_start ?strides ~check_every:0 ~passphrase ~watermark_bits () in
  fst (run_stream ?fuel s ~input prog)

let recognize_buf ?strides ~passphrase ~watermark_bits events =
  let s = stream_start ?strides ~check_every:0 ~passphrase ~watermark_bits () in
  Stackvm.Tracebuf.iter (fun e -> ignore (stream_push s e)) events;
  stream_finish s

let recognize_streaming ?fuel ?strides ?confidence_target ?check_every ~passphrase
    ~watermark_bits ~input prog =
  let s =
    stream_start ?strides ?confidence_target ?check_every ~passphrase ~watermark_bits ()
  in
  run_stream ?fuel s ~input prog

let recognizes ?fuel ~passphrase ~watermark_bits ~input ~expected prog =
  match (recognize ?fuel ~passphrase ~watermark_bits ~input prog).value with
  | Some v -> Bignum.equal v expected
  | None -> false
