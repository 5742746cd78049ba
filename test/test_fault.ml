(* Tests for lib/fault and the degraded paths it exercises: spec parsing,
   deterministic substream injection, trace salvage under artifact damage,
   below-threshold noise recovery on both tracks, decoder totality on
   arbitrary bytes, the events carried by injections, and the batch
   runner's fault policy (retries/backoff, circuit breaker, deadline
   budget, cache-corruption fail-soft). *)

open Engine

let big = Alcotest.testable Bignum.pp Bignum.equal

(* Same branchy gcd host as the engine tests. *)
let host_program =
  let gcd =
    Stackvm.Asm.func ~name:"gcd" ~nargs:2 ~nlocals:3
      Stackvm.Asm.[
        L "loop";
        I (Stackvm.Instr.Load 1); I (Stackvm.Instr.Const 0);
        I (Stackvm.Instr.Cmp Stackvm.Instr.Eq); Br (true, "done");
        I (Stackvm.Instr.Load 0); I (Stackvm.Instr.Load 1);
        I (Stackvm.Instr.Binop Stackvm.Instr.Rem); I (Stackvm.Instr.Store 2);
        I (Stackvm.Instr.Load 1); I (Stackvm.Instr.Store 0);
        I (Stackvm.Instr.Load 2); I (Stackvm.Instr.Store 1);
        Jmp "loop";
        L "done";
        I (Stackvm.Instr.Load 0); I Stackvm.Instr.Ret;
      ]
  in
  let main =
    Stackvm.Asm.func ~name:"main" ~nargs:0 ~nlocals:2
      Stackvm.Asm.[
        I Stackvm.Instr.Read; I (Stackvm.Instr.Store 0);
        I Stackvm.Instr.Read; I (Stackvm.Instr.Store 1);
        I (Stackvm.Instr.Load 0); I (Stackvm.Instr.Load 1);
        I (Stackvm.Instr.Call "gcd"); I Stackvm.Instr.Print;
        I (Stackvm.Instr.Const 0); I Stackvm.Instr.Ret;
      ]
  in
  Stackvm.Program.make [ gcd; main ]

let secret_input = [ 36; 84 ]
let key = "fault-test-key"
let fp = Bignum.of_string "13105294131850248109"

(* Maximum-redundancy embedding (every prime pair covered plus spares) —
   the configuration ABL-FI measures, which tolerates trace-flip noise of
   at least 0.005 on every workload.  The properties below inject well
   under that threshold. *)
let redundant_pieces =
  Codec.Params.pair_count (Codec.Params.make ~passphrase:key ~watermark_bits:64 ()) + 8

let marked_vm =
  lazy
    (let spec =
       {
         Jwm.Embed.passphrase = key;
         watermark = fp;
         watermark_bits = 64;
         pieces = redundant_pieces;
         input = secret_input;
       }
     in
     (Jwm.Embed.embed ~seed:0xFA57L spec host_program).Jwm.Embed.program)

let marked_events = lazy (fst (Stackvm.Trace.record (Lazy.force marked_vm) ~input:secret_input))

(* ---- Spec parsing ---- *)

let test_spec_parse () =
  Alcotest.(check bool) "trace-noise alias" true
    (Fault.Spec.parse "trace-noise=0.01" = Ok (Fault.Spec.Trace_flip 0.01));
  Alcotest.(check bool) "crash" true (Fault.Spec.parse "crash=0.5" = Ok (Fault.Spec.Crash 0.5));
  (match Fault.Spec.parse_list "trace-flip=0.01,byte-flip=0.002" with
  | Ok [ Fault.Spec.Trace_flip a; Fault.Spec.Byte_flip b ] ->
      Alcotest.(check (float 1e-9)) "first rate" 0.01 a;
      Alcotest.(check (float 1e-9)) "second rate" 0.002 b
  | _ -> Alcotest.fail "parse_list failed");
  Alcotest.(check bool) "unknown name rejected" true
    (match Fault.Spec.parse "frobnicate=0.1" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "bad rate rejected" true
    (match Fault.Spec.parse "crash=banana" with Error _ -> true | Ok _ -> false);
  (* to_string round-trips through parse for every advertised fault *)
  List.iter
    (fun (name, _) ->
      let s = name ^ "=0.25" in
      match Fault.Spec.parse s with
      | Ok f -> Alcotest.(check string) ("round-trip " ^ name) s (Fault.Spec.to_string f)
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    (List.filter (fun (n, _) -> n <> "trace-noise") Fault.Spec.all_names)

(* ---- Deterministic substreams ---- *)

let test_injection_deterministic () =
  let events = Lazy.force marked_events in
  let packed = Stackvm.Tracebuf.to_packed_list in
  let plan = Fault.Inject.make ~seed:42L [ Fault.Spec.Trace_flip 0.05 ] in
  let a, na = Fault.Inject.branches plan ~salt:"site-1" events in
  let b, nb = Fault.Inject.branches plan ~salt:"site-1" events in
  Alcotest.(check bool) "same salt, identical corruption" true (packed a = packed b && na = nb);
  Alcotest.(check bool) "faults actually applied" true (na > 0);
  let c, _ = Fault.Inject.branches plan ~salt:"site-2" events in
  Alcotest.(check bool) "different salt, different corruption" true (packed c <> packed a);
  let clean, n0 = Fault.Inject.branches Fault.Inject.none ~salt:"site-1" events in
  Alcotest.(check bool) "empty plan is the identity" true (clean == events && n0 = 0)

(* ---- Salvage regressions: truncated and bit-flipped saves ----

   Each damaged save must also salvage exactly what the list-based parser
   it replaced salvaged, with the same diagnostic ({!Trace_reference}). *)

let test_salvage_damaged_saves () =
  let saved = Stackvm.Trace.save_events (Lazy.force marked_events) in
  let original = Stackvm.Tracebuf.to_packed_list (Stackvm.Trace.load_events saved) in
  (* truncation: every cut point salvages a prefix, with a diagnostic *)
  List.iter
    (fun len ->
      let cut = String.sub saved 0 len in
      let events, diag = Stackvm.Trace.salvage_events cut in
      Alcotest.(check bool) "truncation flagged" true (diag <> None);
      let n = Stackvm.Tracebuf.length events in
      Alcotest.(check bool) "salvaged a prefix" true
        (n <= List.length original
        && Stackvm.Tracebuf.to_packed_list events = List.filteri (fun i _ -> i < n) original);
      Alcotest.(check bool) "truncation: reference agrees" true (Trace_reference.salvage_agrees cut))
    [ 5; String.length saved / 2; String.length saved - 1 ];
  (* bit flips: salvage is total for any damage rate *)
  for seed = 1 to 20 do
    let plan = Fault.Inject.make ~seed:(Int64.of_int seed) [ Fault.Spec.Bit_flip 0.01 ] in
    let damaged, nflips = Fault.Inject.artifact plan ~salt:"save" saved in
    let events, diag = Stackvm.Trace.salvage_events damaged in
    Alcotest.(check bool) "bit flips: reference agrees" true (Trace_reference.salvage_agrees damaged);
    if nflips = 0 then
      Alcotest.(check bool) "undamaged save loads clean" true
        (diag = None && Stackvm.Tracebuf.to_packed_list events = original)
  done

(* Every prefix of a saved corpus trace salvages what the list-based
   parser salvaged, with the same diagnostic. *)
let test_salvage_corpus_prefixes () =
  let kernel = List.hd Workloads.Caffeine.kernels in
  let events, _ =
    Stackvm.Trace.record (Workloads.Workload.vm_program kernel) ~input:kernel.Workloads.Workload.input
  in
  let saved = Stackvm.Trace.save_events events in
  Alcotest.(check bool) "fixture has events" true (Stackvm.Tracebuf.length events > 100);
  for len = 0 to String.length saved do
    if not (Trace_reference.salvage_agrees (String.sub saved 0 len)) then
      Alcotest.failf "%d-byte prefix of %s: salvage differs from the reference" len
        kernel.Workloads.Workload.name
  done

(* The event count in the header is untrusted: a header claiming 2^60
   events over a few bytes of body salvages the events those bytes hold,
   with a diagnostic, and allocates no more than the bytes could need. *)
let test_salvage_huge_claimed_count () =
  let varint v =
    let b = Buffer.create 10 in
    let rec go v =
      if v < 0x80 then Buffer.add_char b (Char.chr v)
      else begin
        Buffer.add_char b (Char.chr (0x80 lor (v land 0x7F)));
        go (v lsr 7)
      end
    in
    go v;
    Buffer.contents b
  in
  let bytes = "TRC1" ^ varint (1 lsl 60) ^ "\x00\x07\x01" ^ "\x01\x09\x00" ^ "\x02" in
  let before = Gc.allocated_bytes () in
  let events, diag = Stackvm.Trace.salvage_events bytes in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check (list int)) "salvaged the two whole events"
    [ Stackvm.Tracebuf.pack ~fidx:0 ~pc:7 ~taken:true; Stackvm.Tracebuf.pack ~fidx:1 ~pc:9 ~taken:false ]
    (Stackvm.Tracebuf.to_packed_list events);
  Alcotest.(check (option string)) "diagnosed"
    (Some "truncated at byte 20; salvaged 2 event(s)") diag;
  Alcotest.(check bool) "no large allocation" true (allocated < 65536.);
  Alcotest.(check bool) "reference agrees" true (Trace_reference.salvage_agrees bytes)

(* A varint with bit 62 set decodes to a negative OCaml int.  In the
   header it once read as "3 trailing byte(s) after -4539628424389459969
   event(s)"; as a count, fidx or pc it is malformed, and salvage keeps
   the events before it. *)
let test_salvage_negative_varint () =
  let negative = String.make 8 '\xff' ^ "\x40" in
  List.iter
    (fun (what, bytes, expected_events, expected_diag) ->
      let events, diag = Stackvm.Trace.salvage_events bytes in
      Alcotest.(check int) (what ^ ": salvaged events") expected_events (Stackvm.Tracebuf.length events);
      Alcotest.(check (option string)) (what ^ ": diagnosed") (Some expected_diag) diag;
      Alcotest.(check bool) (what ^ ": reference agrees") true (Trace_reference.salvage_agrees bytes))
    [
      ("count", "TRC1" ^ negative ^ "\x00\x07\x01", 0, "negative varint at byte 13; salvaged 0 event(s)");
      ( "fidx",
        "TRC1\x02\x00\x07\x01" ^ negative ^ "\x07\x01",
        1,
        "negative varint at byte 17; salvaged 1 event(s)" );
      ("pc", "TRC1\x01\x00" ^ negative ^ "\x01", 0, "negative varint at byte 15; salvaged 0 event(s)");
    ]

(* ---- Below-threshold noise recovers the exact fingerprint ---- *)

let qcheck_vm_noise_below_threshold =
  QCheck.Test.make ~name:"VM recognition exact under below-threshold trace noise" ~count:20
    (QCheck.int_bound 1_000_000) (fun n ->
      let plan =
        Fault.Inject.make ~seed:(Int64.of_int (n + 1)) [ Fault.Spec.Trace_flip 0.0005 ]
      in
      let noisy, _ =
        Fault.Inject.branches plan ~salt:(string_of_int n) (Lazy.force marked_events)
      in
      let o = Jwm.Recognize.recognize_buf ~passphrase:key ~watermark_bits:64 noisy in
      match o.Jwm.Recognize.value with Some v -> Bignum.equal v fp | None -> false)

(* Native host: the parity/sum program from the nwm tests. *)
let native_host =
  let open Nativesim in
  {
    Asm.text =
      Asm.[
        I (Insn.In 0);
        I (Insn.Mov_imm (1, 0));
        I (Insn.Mov_imm (2, 1));
        L "loop";
        I (Insn.Cmp (2, 0));
        Jcc (Insn.Gt, Lbl "after");
        I (Insn.Alu (Insn.Add, 1, 2));
        I (Insn.Alu_imm (Insn.Add, 2, 1));
        Jmp (Lbl "loop");
        L "after";
        I (Insn.Out 1);
        I (Insn.Mov (3, 0));
        I (Insn.Alu_imm (Insn.And, 3, 1));
        I (Insn.Cmp_imm (3, 0));
        Jcc (Insn.Eq, Lbl "even");
        I (Insn.Mov_imm (4, 111));
        Jmp (Lbl "join");
        L "even";
        I (Insn.Mov_imm (4, 222));
        Jmp (Lbl "join");
        L "join";
        I (Insn.Out 4);
        Jmp (Lbl "fin");
        L "fin";
        I Insn.Halt;
      ];
    data = [];
  }

let native_mark = Bignum.of_int 0xABCDE

let native_fixture =
  lazy
    (let r =
       Nwm.Embed.embed ~seed:0xFA57L ~watermark:native_mark ~bits:24 ~training_input:[ 6 ]
         native_host
     in
     let steps =
       Nwm.Extract.observe r.Nwm.Embed.binary ~begin_addr:r.Nwm.Embed.begin_addr
         ~end_addr:r.Nwm.Embed.end_addr ~input:[ 6 ]
     in
     (r.Nwm.Embed.binary, steps))

let qcheck_native_noise_below_threshold =
  QCheck.Test.make ~name:"native vote exact under below-threshold obs garbling" ~count:20
    (QCheck.int_bound 1_000_000) (fun n ->
      let bin, steps = Lazy.force native_fixture in
      let plan = Fault.Inject.make ~seed:(Int64.of_int (n + 1)) [ Fault.Spec.Obs_garble 0.01 ] in
      let view pass =
        match Fault.Inject.garble plan ~salt:(Printf.sprintf "%d:%d" n pass) with
        | None -> steps
        | Some g ->
            List.map
              (fun (s : Nwm.Extract.step) -> { s with Nwm.Extract.s_stack_top = g s.Nwm.Extract.s_stack_top })
              steps
      in
      let d = Nwm.Extract.vote bin (List.init 5 view) in
      match d.Nwm.Extract.value with Some v -> Bignum.equal v native_mark | None -> false)

(* ---- Decoder totality on arbitrary bytes ---- *)

let arb_bytes_with_magic magic =
  QCheck.(map (fun (with_magic, s) -> if with_magic then magic ^ s else s) (pair bool string))

let qcheck_decode_outcome_total =
  QCheck.Test.make ~name:"Batch.decode_outcome total on arbitrary bytes" ~count:300
    QCheck.string (fun s ->
      ignore (Batch.decode_outcome s);
      true)

let qcheck_serialize_decode_total =
  QCheck.Test.make ~name:"Serialize.decode_opt total on arbitrary bytes" ~count:300
    (arb_bytes_with_magic "SVM1") (fun s ->
      ignore (Stackvm.Serialize.decode_opt s);
      true)

(* A nine-byte varint whose last byte reaches the sign bit decodes to a
   negative length; it must be rejected as malformed, not reach String.sub. *)
let test_serialize_negative_varint () =
  let data = "SVM1" ^ "\x00\x01" ^ String.make 8 '\xff' ^ "\x40" ^ String.make 8 '\x00' in
  Alcotest.(check bool) "negative string length rejected" true
    (Option.is_none (Stackvm.Serialize.decode_opt data))

let qcheck_salvage_total =
  QCheck.Test.make ~name:"Trace.salvage_events total on arbitrary bytes" ~count:300
    (arb_bytes_with_magic "TRC1") (fun s ->
      (* total, and equal to the list-based parser it replaced *)
      Trace_reference.salvage_agrees s)

(* ---- Events: fault variants through the JSON-lines sink ---- *)

let test_events_json_sink () =
  let path = Filename.temp_file "pathmark-faults" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let events = Events.create ~sink:(Events.json_sink oc) () in
      Events.emit events
        (Events.Fault_injected { id = 3; label = "job"; layer = "trace"; detail = "2 flips" });
      Events.emit events
        (Events.Job_retry { id = 3; label = "job"; attempt = 1; reason = "crash"; backoff_ms = 12.5 });
      Events.emit events (Events.Breaker_open { label = "job"; key = "abc"; failures = 2 });
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "three JSON lines" 3 (List.length lines);
      let contains line needle =
        let nl = String.length needle and ll = String.length line in
        let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun (line, needles) ->
          Alcotest.(check bool) "JSON object line" true
            (String.length line > 0 && line.[0] = '{');
          List.iter
            (fun needle -> Alcotest.(check bool) ("has " ^ needle) true (contains line needle))
            needles)
        (List.combine lines
           [
             [ "\"ev\":\"fault_injected\""; "\"layer\":\"trace\""; "\"detail\":\"2 flips\"" ];
             [ "\"ev\":\"job_retry\""; "\"backoff_ms\":12.500" ];
             [ "\"ev\":\"breaker_open\""; "\"failures\":2" ];
           ]);
      (* counters derived from the fault variants *)
      Alcotest.(check (option int)) "faults counted" (Some 1)
        (List.assoc_opt "faults.injected" (Events.counters events));
      Alcotest.(check (option int)) "trips counted" (Some 1)
        (List.assoc_opt "breaker.trips" (Events.counters events)))

(* ---- Batch policy: crash retries with deterministic backoff ---- *)

let embed_job ?label ?seed fingerprint =
  Job.vm_embed ?label ?seed ~key ~bits:64 ~pieces:12 ~fingerprint ~input:secret_input host_program

let test_batch_crash_retries () =
  let fleet = List.init 3 (fun i -> embed_job (Bignum.add fp (Bignum.of_int i))) in
  let events = Events.create () in
  let policy =
    { Batch.default_policy with retries = 1; backoff_ms = 1.0; breaker_threshold = 0 }
  in
  let inject = Fault.Inject.make ~seed:9L [ Fault.Spec.Crash 1.0 ] in
  let results = Batch.run ~domains:2 ~policy ~inject ~events fleet in
  List.iter
    (fun r ->
      match r.Batch.outcome with
      | Batch.Failed { attempts = 2; _ } -> ()
      | o -> Alcotest.fail ("expected Failed after 2 attempts, got " ^ Batch.describe_outcome o))
    results;
  let retries =
    Events.events events
    |> List.filter_map (function
         | Events.Job_retry { backoff_ms; _ } -> Some backoff_ms
         | _ -> None)
  in
  Alcotest.(check int) "one retry per job" 3 (List.length retries);
  List.iter (fun b -> Alcotest.(check (float 1e-9)) "first backoff" 1.0 b) retries;
  let crash_faults =
    Events.count events (function
      | Events.Fault_injected { layer = "crash"; _ } -> true
      | _ -> false)
  in
  Alcotest.(check int) "every attempt crashed by injection" 6 crash_faults

(* ---- Batch policy: circuit breaker isolates one job spec ---- *)

let test_batch_breaker () =
  let embedded =
    match (List.hd (Batch.run [ embed_job fp ])).Batch.outcome with
    | Batch.Vm_embedded { program; _ } -> Stackvm.Serialize.decode program
    | _ -> Alcotest.fail "embed failed"
  in
  let bad () = Job.vm_recognize ~scheme:"no-such-scheme" ~key ~bits:64 ~input:secret_input embedded in
  let events = Events.create () in
  let policy = { Batch.default_policy with breaker_threshold = 2 } in
  let results = Batch.run ~domains:1 ~policy ~events [ bad (); bad (); bad (); embed_job fp ] in
  (match List.map (fun r -> (r.Batch.outcome, r.Batch.attempts)) results with
  | [ (Batch.Failed _, 1); (Batch.Failed _, 1);
      (Batch.Failed { reason; _ }, 0); (Batch.Vm_embedded _, 1) ] ->
      Alcotest.(check string) "short-circuit reason" "circuit breaker open for this job spec" reason
  | _ -> Alcotest.fail "expected fail/fail/short-circuit/ok");
  Alcotest.(check int) "breaker tripped once" 1
    (Events.count events (function Events.Breaker_open _ -> true | _ -> false));
  Alcotest.(check (option int)) "one short-circuit counted" (Some 1)
    (List.assoc_opt "breaker.short_circuits" (Events.counters events))

(* ---- Batch policy: deadline budget fails fast, never raises ---- *)

let test_batch_deadline () =
  let policy = { Batch.default_policy with deadline_ms = Some 0.0 } in
  let results = Batch.run ~domains:1 ~policy [ embed_job fp; embed_job (Bignum.of_int 7) ] in
  List.iter
    (fun r ->
      match r.Batch.outcome with
      | Batch.Failed { reason = "batch deadline exhausted"; attempts = 0 } -> ()
      | o -> Alcotest.fail ("expected deadline failure, got " ^ Batch.describe_outcome o))
    results

(* ---- Batch: corrupted cache entries are recomputed, not trusted ---- *)

let test_batch_cache_corruption_failsoft () =
  let cache = Cache.create () in
  let inject = Fault.Inject.make ~seed:5L [ Fault.Spec.Cache_corrupt 1.0 ] in
  let events = Events.create () in
  let first = List.hd (Batch.run ~cache ~inject ~events [ embed_job fp ]) in
  let second = List.hd (Batch.run ~cache ~inject [ embed_job fp ]) in
  let bytes r =
    match r.Batch.outcome with
    | Batch.Vm_embedded { program; _ } -> program
    | o -> Alcotest.fail ("expected Vm_embedded, got " ^ Batch.describe_outcome o)
  in
  Alcotest.(check bool) "first run computed" false first.Batch.from_cache;
  Alcotest.(check bool) "corrupt entry is a miss, not a hit" false second.Batch.from_cache;
  Alcotest.(check string) "recomputed result identical" (bytes first) (bytes second);
  Alcotest.(check bool) "cache corruption surfaced as event" true
    (Events.count events
       (function Events.Fault_injected { layer = "cache"; _ } -> true | _ -> false)
    > 0)

(* ---- Batch: trace noise below threshold still verifies end to end ---- *)

let test_batch_noisy_recognition () =
  let events = Events.create () in
  let inject = Fault.Inject.make ~seed:3L [ Fault.Spec.Trace_flip 0.0005 ] in
  let job =
    Job.vm_recognize ~key ~bits:64 ~expected:fp ~input:secret_input (Lazy.force marked_vm)
  in
  match (List.hd (Batch.run ~inject ~events [ job ])).Batch.outcome with
  | Batch.Vm_recognized { value = Some v; matched = Some true } ->
      Alcotest.check big "exact fingerprint through noisy batch" fp v
  | o -> Alcotest.fail ("expected recognition, got " ^ Batch.describe_outcome o)

(* ---- Degraded recognition: total, bounded confidence ---- *)

let test_degraded_recognition_bounds () =
  (* clean: recovered with real margin and high confidence *)
  let clean =
    Jwm.Recognize.recognize_buf ~passphrase:key ~watermark_bits:64 (Lazy.force marked_events)
  in
  (match clean.Jwm.Recognize.value with
  | Some v -> Alcotest.check big "clean recovery" fp v
  | None -> Alcotest.fail "clean recognition failed");
  Alcotest.(check bool) "recovered confidence >= 0.5" true
    (clean.Jwm.Recognize.partial.Jwm.Recognize.confidence >= 0.5);
  Alcotest.(check bool) "positive redundancy margin" true
    (clean.Jwm.Recognize.partial.Jwm.Recognize.redundancy_margin >= 1);
  (* wrecked: a short, heavily flipped prefix must degrade, not raise *)
  let prefix = Stackvm.Tracebuf.create () in
  Stackvm.Tracebuf.iteri
    (fun i e -> if i < 50 then Stackvm.Tracebuf.add_packed prefix e)
    (Lazy.force marked_events);
  let plan = Fault.Inject.make ~seed:11L [ Fault.Spec.Trace_flip 0.5 ] in
  let noisy, _ = Fault.Inject.branches plan ~salt:"wreck" prefix in
  let wrecked = Jwm.Recognize.recognize_buf ~passphrase:key ~watermark_bits:64 noisy in
  let c = wrecked.Jwm.Recognize.partial.Jwm.Recognize.confidence in
  Alcotest.(check bool) "confidence bounded" true (c >= 0.0 && c <= 1.0);
  if wrecked.Jwm.Recognize.value = None then
    Alcotest.(check bool) "unrecovered confidence below 0.5" true (c < 0.5)

let test_native_vote_clean () =
  let bin, steps = Lazy.force native_fixture in
  let d = Nwm.Extract.vote bin [ steps; steps; steps ] in
  (match d.Nwm.Extract.value with
  | Some v -> Alcotest.check big "clean vote recovers" native_mark v
  | None -> Alcotest.fail "clean vote failed");
  Alcotest.(check (float 1e-9)) "full agreement" 1.0 d.Nwm.Extract.agreement;
  Alcotest.(check (float 1e-9)) "full confidence" 1.0 d.Nwm.Extract.confidence

let suite =
  [
    Alcotest.test_case "fault specs parse and round-trip" `Quick test_spec_parse;
    Alcotest.test_case "injection is salt-deterministic" `Quick test_injection_deterministic;
    Alcotest.test_case "salvage survives truncated and bit-flipped saves" `Quick
      test_salvage_damaged_saves;
    Alcotest.test_case "salvage of every corpus trace prefix matches the reference" `Quick
      test_salvage_corpus_prefixes;
    Alcotest.test_case "salvage ignores a huge claimed event count" `Quick
      test_salvage_huge_claimed_count;
    Alcotest.test_case "salvage rejects a negative varint" `Quick test_salvage_negative_varint;
    QCheck_alcotest.to_alcotest qcheck_vm_noise_below_threshold;
    QCheck_alcotest.to_alcotest qcheck_native_noise_below_threshold;
    QCheck_alcotest.to_alcotest qcheck_decode_outcome_total;
    QCheck_alcotest.to_alcotest qcheck_serialize_decode_total;
    QCheck_alcotest.to_alcotest qcheck_salvage_total;
    Alcotest.test_case "fault events flow through the JSON sink" `Quick test_events_json_sink;
    Alcotest.test_case "injected crashes retry with deterministic backoff" `Quick
      test_batch_crash_retries;
    Alcotest.test_case "circuit breaker isolates a crashing job spec" `Quick test_batch_breaker;
    Alcotest.test_case "deadline budget fails fast" `Quick test_batch_deadline;
    Alcotest.test_case "corrupted cache entries are recomputed" `Quick
      test_batch_cache_corruption_failsoft;
    Alcotest.test_case "noisy batch recognition stays exact below threshold" `Quick
      test_batch_noisy_recognition;
    Alcotest.test_case "degraded recognition is total with bounded confidence" `Quick
      test_degraded_recognition_bounds;
    Alcotest.test_case "native majority vote recovers cleanly" `Quick test_native_vote_clean;
    Alcotest.test_case "Serialize rejects a negative varint" `Quick test_serialize_negative_varint;
  ]
