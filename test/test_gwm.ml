(* Tests for the graph track: the reducible-permutation-graph codec, the
   embedded walker, blind recognition, and survival under the fault matrix. *)

let big = Alcotest.testable Bignum.pp Bignum.equal

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let workloads =
  [
    Workloads.Caffeine.suite;
    Workloads.Jesslite.engine;
    Workloads.Miniinterp.interpreter;
  ]

let spec ?(copies = 8) ?(bits = 64) watermark =
  {
    Gwm.Embed.passphrase = "the graph watermark key";
    watermark;
    watermark_bits = bits;
    copies;
    input = [];
  }

(* {2 Codec} *)

let test_orders () =
  Alcotest.(check int) "64-bit order" 21 (Gwm.Encode.order_for_bits 64);
  Alcotest.(check int) "128-bit order" 35 (Gwm.Encode.order_for_bits 128);
  Alcotest.(check int) "1-bit order" 2 (Gwm.Encode.order_for_bits 1);
  List.iter
    (fun bits ->
      let m = Gwm.Encode.order_for_bits bits in
      Alcotest.(check bool)
        (Printf.sprintf "capacity of order %d covers %d bits" m bits)
        true
        (Gwm.Encode.capacity_bits m >= bits))
    [ 1; 8; 16; 32; 64; 128; 256 ]

let codec_roundtrip =
  qcheck "factoradic digits/back-targets round-trip"
    QCheck2.Gen.(pair (int_range 1 160) int)
    (fun (bits, seed) ->
      let w = Bignum.random_bits (Util.Prng.create (Int64.of_int seed)) bits in
      let m = Gwm.Encode.order_for_bits bits in
      Bignum.equal w (Gwm.Encode.value (Gwm.Encode.digits w ~m))
      && Bignum.equal w (Gwm.Encode.of_back_targets (Gwm.Encode.back_targets w ~m)))

let stream_roundtrip =
  qcheck "bitstream decodes to the value it encodes"
    QCheck2.Gen.(pair (int_range 1 96) int)
    (fun (bits, seed) ->
      let w = Bignum.random_bits (Util.Prng.create (Int64.of_int seed)) bits in
      let m = Gwm.Encode.order_for_bits bits in
      let stream = Gwm.Encode.bitstream w ~m ~key:"k" in
      List.length stream = Gwm.Encode.stream_length m
      &&
      let payload =
        List.filteri (fun i _ -> i >= Gwm.Encode.sync_bits) stream
      in
      match Gwm.Encode.decode_payload ~m payload with
      | Ok v -> Bignum.equal v w
      | Error _ -> false)

let test_back_edges_reducible () =
  (* every back edge must target an earlier node — the dominator property
     that makes the graph reducible *)
  let w = Bignum.of_string "123456789123456789" in
  let b = Gwm.Encode.back_targets w ~m:21 in
  Array.iteri
    (fun i0 bi ->
      Alcotest.(check bool) "back edge goes strictly back" true (bi >= 0 && bi <= i0))
    b

(* {2 Embed → recognize on the three workloads} *)

let test_roundtrip_workloads () =
  let w = Bignum.of_string "16045690984503098046" in
  List.iter
    (fun wl ->
      let prog = Workloads.Workload.vm_program wl in
      let r = Gwm.Embed.embed (spec w) prog in
      let o =
        Gwm.Recognize.recognize ~passphrase:"the graph watermark key"
          ~watermark_bits:64 ~input:wl.Workloads.Workload.input r.Gwm.Embed.program
      in
      Alcotest.(check (option big))
        (wl.Workloads.Workload.name ^ " recovers")
        (Some w) o.Gwm.Recognize.value;
      Alcotest.(check bool)
        (wl.Workloads.Workload.name ^ " found several copies")
        true
        (o.Gwm.Recognize.copies_found >= 4))
    workloads

let test_semantics_preserved () =
  let w = Bignum.of_string "81985529216486895" in
  List.iter
    (fun wl ->
      let prog = Workloads.Workload.vm_program wl in
      let r = Gwm.Embed.embed (spec w) prog in
      Alcotest.(check bool)
        (wl.Workloads.Workload.name ^ " equivalent on all inputs")
        true
        (Stackvm.Compile.equivalent_on prog r.Gwm.Embed.program
           ~inputs:(wl.Workloads.Workload.input :: wl.Workloads.Workload.alt_inputs)))
    workloads

let test_wrong_key () =
  let w = Bignum.of_string "31415926535897932" in
  let prog = Workloads.Workload.vm_program Workloads.Caffeine.suite in
  let r = Gwm.Embed.embed (spec w) prog in
  let o =
    Gwm.Recognize.recognize ~passphrase:"not the right key" ~watermark_bits:64
      ~input:Workloads.Caffeine.suite.Workloads.Workload.input r.Gwm.Embed.program
  in
  Alcotest.(check (option big)) "wrong key recovers nothing" None o.Gwm.Recognize.value

let test_stealth_variant () =
  let w = Bignum.of_string "271828182845904523" in
  let prog = Workloads.Workload.vm_program Workloads.Caffeine.suite in
  let r = Gwm.Embed.embed ~stealth:true (spec w) prog in
  Alcotest.(check bool)
    "stealth variant still recognizes" true
    (Gwm.Recognize.recognizes ~passphrase:"the graph watermark key"
       ~watermark_bits:64
       ~input:Workloads.Caffeine.suite.Workloads.Workload.input ~expected:w
       r.Gwm.Embed.program);
  (* the array-valued guards must not fold under residue reasoning *)
  let opaque_findings prog =
    List.length
      (List.filter
         (fun (d : Analysis.Diag.t) -> d.rule = "opaque-branch")
         (Analysis.Vmlint.lint prog))
  in
  Alcotest.(check bool)
    "stealth mode strictly reduces opaque-branch findings" true
    (opaque_findings r.Gwm.Embed.program
    < opaque_findings
        (Gwm.Embed.embed (spec w) prog).Gwm.Embed.program)

(* {2 The PR 3 fault matrix, replayed offline over the branch stream} *)

let marked_trace =
  lazy
    (let w = Bignum.of_string "18369614218089748088" in
     let wl = Workloads.Caffeine.suite in
     let r = Gwm.Embed.embed (spec ~copies:12 w) (Workloads.Workload.vm_program wl) in
     let events, _ =
       Stackvm.Trace.record r.Gwm.Embed.program ~input:wl.Workloads.Workload.input
     in
     (w, events))

let recover_under fault seed =
  let w, events = Lazy.force marked_trace in
  let plan = Fault.Inject.make ~seed:(Int64.of_int seed) [ fault ] in
  let noisy, _ = Fault.Inject.branches plan ~salt:"gwm" events in
  let o =
    Gwm.Recognize.recognize_buf ~passphrase:"the graph watermark key"
      ~watermark_bits:64 noisy
  in
  o.Gwm.Recognize.value = Some w

let test_fault_matrix () =
  List.iter
    (fun (name, fault) ->
      let recovered =
        List.length
          (List.filter (fun s -> recover_under fault s) [ 1; 2; 3; 4; 5 ])
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: recovered %d/5 seeds" name recovered)
        true (recovered >= 4))
    [
      ("trace-flip=0.002", Fault.Spec.Trace_flip 0.002);
      ("trace-drop=0.002", Fault.Spec.Trace_drop 0.002);
      ("trace-dup=0.01", Fault.Spec.Trace_dup 0.01);
      ("trace-trunc=0.3", Fault.Spec.Trace_trunc 0.3);
    ]

let test_sense_inversion () =
  (* flipping every branch decision models a branch-sense-inverting
     rewrite; the complement search must still find the stream *)
  let w, events = Lazy.force marked_trace in
  let flipped = Stackvm.Tracebuf.create () in
  Stackvm.Tracebuf.iter
    (fun e -> Stackvm.Tracebuf.add_packed flipped (Stackvm.Tracebuf.flip e))
    events;
  let o =
    Gwm.Recognize.recognize_buf ~passphrase:"the graph watermark key"
      ~watermark_bits:64 flipped
  in
  Alcotest.(check (option big)) "survives global inversion" (Some w) o.Gwm.Recognize.value

let suite =
  [
    Alcotest.test_case "encode orders" `Quick test_orders;
    codec_roundtrip;
    stream_roundtrip;
    Alcotest.test_case "back edges reducible" `Quick test_back_edges_reducible;
    Alcotest.test_case "round-trip on all workloads" `Slow test_roundtrip_workloads;
    Alcotest.test_case "semantics preserved" `Slow test_semantics_preserved;
    Alcotest.test_case "wrong key" `Quick test_wrong_key;
    Alcotest.test_case "stealth variant" `Slow test_stealth_variant;
    Alcotest.test_case "fault matrix" `Slow test_fault_matrix;
    Alcotest.test_case "branch-sense inversion" `Quick test_sense_inversion;
  ]
