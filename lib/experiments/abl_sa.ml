(* ABL-SA: watermark survival against the static adversary.

   The distortive attacks of §5.1.2 transform blindly; this experiment
   arms the adversary with the stealth linter (lib/analysis) and lets it
   strip exactly what the analyzer can prove.  Per workload:

   - VM track: embed, lint, run [Vmattacks.Targeted_strip], check the
     attacked program still behaves (it must — every rewrite is backed
     by a sound verdict) and whether the mark is still recognized.  The
     same embedding under [~stealth] is linted again: the analyzer must
     come back empty-handed.
   - native track: embed with and without tamper-proofing, run
     [Nattacks.Static_strip] over the linter's branch-call findings, and
     classify the outcome: program breaks (mark defended), or program
     works — in which case the smart tracer decides whether the mark
     survived. *)

type vm_row = {
  workload : string;
  diags_plain : int;  (** linter findings on the plain embedding *)
  diags_stealth : int;  (** findings on the stealth embedding *)
  removed : int;  (** instructions folded/blanked/dropped by the strip *)
  equivalent : bool;  (** stripped program matches outputs on all inputs *)
  survived : bool;  (** mark recognized after the strip (plain embedding) *)
  survived_stealth : bool;  (** stealth embedding: mark recognized after strip *)
}

type native_row = {
  workload : string;
  diags : int;  (** linter findings on the tamper-proofed embedding *)
  patched : int;  (** call sites the attack overwrote *)
  protected_outcome : string;  (** tamper-proofed binary vs the attack *)
  unprotected_outcome : string;  (** tamper_proof:false binary vs the attack *)
}

let vm_bits = 64

let vm_case (w : Workloads.Workload.t) =
  let prog = Workloads.Workload.vm_program w in
  let input = w.Workloads.Workload.input in
  let params = Codec.Params.make ~passphrase:Common.passphrase ~watermark_bits:vm_bits () in
  let spec =
    {
      Jwm.Embed.passphrase = Common.passphrase;
      watermark = Common.watermark_for ~bits:vm_bits;
      watermark_bits = vm_bits;
      pieces = Codec.Params.pair_count params + 8;
      input;
    }
  in
  let embed ~stealth = (Jwm.Embed.embed ~seed:0xAB15AL ~stealth spec prog).Jwm.Embed.program in
  let plain = embed ~stealth:false and stealth = embed ~stealth:true in
  let strip = Vmattacks.Targeted_strip.strip plain in
  let stripped_stealth = (Vmattacks.Targeted_strip.strip stealth).Vmattacks.Targeted_strip.program in
  let outputs p i = (Stackvm.Compile.run_program ~fuel:2_000_000_000 p ~input:i).Stackvm.Interp.outputs in
  let equivalent =
    List.for_all
      (fun i -> outputs strip.Vmattacks.Targeted_strip.program i = outputs plain i)
      (input :: w.Workloads.Workload.alt_inputs)
  in
  {
    workload = w.Workloads.Workload.name;
    diags_plain = List.length (Analysis.Vmlint.lint plain);
    diags_stealth = List.length (Analysis.Vmlint.lint stealth);
    removed =
      strip.Vmattacks.Targeted_strip.folded_branches + strip.Vmattacks.Targeted_strip.blanked
      + strip.Vmattacks.Targeted_strip.dropped_stores;
    equivalent;
    survived = Common.recognized ~bits:vm_bits ~input strip.Vmattacks.Targeted_strip.program;
    survived_stealth = Common.recognized ~bits:vm_bits ~input stripped_stealth;
  }

let native_bits = 24

let native_case (w : Workloads.Workload.t) =
  let prog = Workloads.Workload.native_program w in
  let input = w.Workloads.Workload.input in
  let mark = Common.watermark_for ~bits:native_bits in
  let embed ~tamper_proof =
    Nwm.Embed.embed ~seed:0xAB15AL ~tamper_proof ~watermark:mark ~bits:native_bits
      ~training_input:input prog
  in
  let outcome (r : Nwm.Embed.report) =
    let strip = Nattacks.Static_strip.strip r.Nwm.Embed.binary in
    let attacked = strip.Nattacks.Static_strip.binary in
    let broken =
      Nattacks.Attacks.broken ~fuel:200_000_000 r.Nwm.Embed.binary attacked
        ~inputs:(input :: w.Workloads.Workload.alt_inputs)
    in
    let survived =
      (not broken)
      &&
      match
        Nwm.Extract.extract attacked ~begin_addr:r.Nwm.Embed.begin_addr
          ~end_addr:r.Nwm.Embed.end_addr ~input
      with
      | Ok e -> Bignum.equal (Nwm.Extract.watermark e) mark
      | Error _ -> false
    in
    let desc =
      if broken then "program breaks (mark defended)"
      else if survived then "program works, mark SURVIVES"
      else "program works, mark stripped"
    in
    (strip, desc)
  in
  let protected = embed ~tamper_proof:true and unprotected = embed ~tamper_proof:false in
  let strip, protected_outcome = outcome protected in
  let _, unprotected_outcome = outcome unprotected in
  {
    workload = w.Workloads.Workload.name;
    diags = strip.Nattacks.Static_strip.diagnostics;
    patched = strip.Nattacks.Static_strip.patched_calls;
    protected_outcome;
    unprotected_outcome;
  }

let default_workloads () =
  Workloads.Spec.all @ [ Workloads.Caffeine.suite; Workloads.Jesslite.engine ]

let run ?workloads () =
  let ws = match workloads with Some ws -> ws | None -> default_workloads () in
  (List.map vm_case ws, List.map native_case ws)

let print (vm_rows, native_rows) =
  Common.header "ABL-SA: watermark survival vs the static analyzer (lib/analysis)";
  Common.row "VM track (Targeted_strip on the linter's verdicts)";
  Common.row
    (Printf.sprintf "%-10s %7s %9s %8s %11s %9s %9s" "workload" "diags" "stealth-d" "removed"
       "equivalent" "survived" "stealth-s");
  List.iter
    (fun (r : vm_row) ->
      Common.row
        (Printf.sprintf "%-10s %7d %9d %8d %11b %9b %9b" r.workload r.diags_plain r.diags_stealth
           r.removed r.equivalent r.survived r.survived_stealth))
    vm_rows;
  Common.row "";
  Common.row "native track (Static_strip on flagged branch-function call sites)";
  Common.row (Printf.sprintf "%-10s %7s %9s  %-34s %-34s" "workload" "diags" "patched" "tamper-proofed" "unprotected");
  List.iter
    (fun r ->
      Common.row
        (Printf.sprintf "%-10s %7d %9d  %-34s %-34s" r.workload r.diags r.patched r.protected_outcome
           r.unprotected_outcome))
    native_rows
