(* Tests for the Java-track watermarker: opaque predicates, code
   generators, embedding and recognition (Sections 3.1-3.3). *)

open Stackvm

let big = Alcotest.testable Bignum.pp Bignum.equal

(* A small but branchy host program: computes gcds and a few sums driven by
   the input sequence, so the secret input actually steers execution. *)
let host_program =
  let gcd =
    Asm.func ~name:"gcd" ~nargs:2 ~nlocals:3
      Asm.[
        L "loop";
        I (Instr.Load 1); I (Instr.Const 0); I (Instr.Cmp Instr.Eq); Br (true, "done");
        I (Instr.Load 0); I (Instr.Load 1); I (Instr.Binop Instr.Rem); I (Instr.Store 2);
        I (Instr.Load 1); I (Instr.Store 0);
        I (Instr.Load 2); I (Instr.Store 1);
        Jmp "loop";
        L "done";
        I (Instr.Load 0); I Instr.Ret;
      ]
  in
  let sum_to =
    Asm.func ~name:"sum_to" ~nargs:1 ~nlocals:3
      Asm.[
        I (Instr.Const 0); I (Instr.Store 1);
        I (Instr.Const 1); I (Instr.Store 2);
        L "loop";
        I (Instr.Load 2); I (Instr.Load 0); I (Instr.Cmp Instr.Gt); Br (true, "done");
        I (Instr.Load 1); I (Instr.Load 2); I (Instr.Binop Instr.Add); I (Instr.Store 1);
        I (Instr.Load 2); I (Instr.Const 1); I (Instr.Binop Instr.Add); I (Instr.Store 2);
        Jmp "loop";
        L "done";
        I (Instr.Load 1); I Instr.Ret;
      ]
  in
  let main =
    Asm.func ~name:"main" ~nargs:0 ~nlocals:4
      Asm.[
        I Instr.Read; I (Instr.Store 0);
        I Instr.Read; I (Instr.Store 1);
        I (Instr.Load 0); I (Instr.Load 1); I (Instr.Call "gcd"); I Instr.Print;
        I (Instr.Load 0); I (Instr.Call "sum_to"); I Instr.Print;
        I (Instr.Load 1); I (Instr.Call "sum_to"); I Instr.Print;
        I (Instr.Const 0); I Instr.Ret;
      ]
  in
  Program.make [ gcd; sum_to; main ]

let secret_input = [ 36; 84 ]

let spec ?(pieces = 40) ?(bits = 128) watermark =
  {
    Jwm.Embed.passphrase = "the secret watermark key";
    watermark;
    watermark_bits = bits;
    pieces;
    input = secret_input;
  }

let watermark_128 = Bignum.of_string "240543712258492747216458290490865902517"

(* ---- opaque predicates ---- *)

let run_predicate instrs x =
  let code = (Instr.Const x :: Instr.Store 0 :: instrs) @ [ Instr.Ret ] in
  let f = Program.func ~name:"main" ~nargs:0 ~nlocals:1 code in
  let prog = Program.make [ f ] in
  Verify.check_exn prog;
  match (Interp.run prog ~input:[]).Interp.outcome with
  | Interp.Finished v -> v
  | _ -> Alcotest.fail "predicate trapped"

let interesting_values =
  [ 0; 1; -1; 2; 3; -17; 123456; -987654; max_int; min_int; 1 lsl 31; (1 lsl 31) + 1; max_int - 1 ]

let test_false_predicates_always_zero () =
  for variant = 0 to Jwm.Opaque.variant_count - 1 do
    List.iter
      (fun x ->
        Alcotest.(check int)
          (Printf.sprintf "false variant %d at %d" variant x)
          0
          (run_predicate (Jwm.Opaque.false_variant variant ~slot:0) x))
      interesting_values
  done

let test_true_predicates_always_one () =
  for variant = 0 to Jwm.Opaque.variant_count - 1 do
    List.iter
      (fun x ->
        Alcotest.(check int)
          (Printf.sprintf "true variant %d at %d" variant x)
          1
          (run_predicate (Jwm.Opaque.true_variant variant ~slot:0) x))
      interesting_values
  done

let qcheck_false_predicates =
  QCheck.Test.make ~name:"false predicates are 0 on random values" ~count:500
    QCheck.(pair (int_bound (Jwm.Opaque.variant_count - 1)) int)
    (fun (variant, x) -> run_predicate (Jwm.Opaque.false_variant variant ~slot:0) x = 0)

(* ---- loop code generator ---- *)

let bits_of_statement params s = Codec.Statement.bits params s

let test_loop_constant_fits () =
  let rng = Util.Prng.create 3L in
  for _ = 1 to 50 do
    let bits = List.init 62 (fun _ -> Util.Prng.bool rng) in
    let constant, iterations = Jwm.Codegen.loop_constant ~bits in
    Alcotest.(check bool) "constant nonnegative" true (constant >= 0);
    Alcotest.(check int) "iterations" 63 iterations
  done

(* Snippets carry snippet-relative targets, so they are placed with
   Rewrite.insert — exactly as the embedder does. *)
let run_snippet_trace snippet ~nlocals ~nglobals =
  let skeleton =
    Program.func ~name:"main" ~nargs:0 ~nlocals [ Instr.Const 0; Instr.Store 0; Instr.Const 0; Instr.Ret ]
  in
  let f = Rewrite.insert skeleton ~at:2 snippet in
  let prog = Program.make ~nglobals [ f ] in
  Verify.check_exn prog;
  Trace.capture prog ~input:[]

let test_loop_snippet_emits_bits_at_stride2 () =
  let rng = Util.Prng.create 4L in
  for trial = 1 to 20 do
    let bits = List.init 62 (fun _ -> Util.Prng.bool rng) in
    let snippet, next_local = Jwm.Codegen.loop_snippet ~rng ~bits ~first_local:1 ~sink_global:0 () in
    let trace = run_snippet_trace snippet ~nlocals:next_local ~nglobals:1 in
    let trace_bits = Trace.bitstring trace in
    (* payload must appear at stride 2 *)
    let value = List.fold_left (fun acc b -> (acc lsl 1) lor (if b then 1 else 0)) 0 (List.rev bits) in
    let found = ref false in
    let pos = ref 0 in
    while (not !found) && !pos < Util.Bitstring.length trace_bits do
      (match Util.Bitstring.window trace_bits ~pos:!pos ~stride:2 ~width:62 with
      | Some v when v = value -> found := true
      | _ -> ());
      incr pos
    done;
    if not !found then Alcotest.failf "trial %d: loop payload not found at stride 2" trial
  done

let test_loop_snippet_is_stack_neutral_and_silent () =
  let rng = Util.Prng.create 5L in
  let bits = List.init 62 (fun i -> i mod 3 = 0) in
  let snippet, next_local = Jwm.Codegen.loop_snippet ~rng ~bits ~first_local:1 ~sink_global:0 () in
  let trace = run_snippet_trace snippet ~nlocals:next_local ~nglobals:1 in
  (match trace.Trace.result.Interp.outcome with
  | Interp.Finished 0 -> ()
  | _ -> Alcotest.fail "snippet altered program result");
  Alcotest.(check (list int)) "no output" [] trace.Trace.result.Interp.outputs

(* ---- condition code generator ---- *)

let test_condition_snippet_emits_payload_on_second_visit () =
  let rng = Util.Prng.create 6L in
  let bits = List.init 62 (fun i -> i mod 5 = 0 || i mod 7 = 0) in
  (* Host: a loop that executes the snippet site twice, with local 0
     taking values 11 then 22 (a natural discriminator). *)
  let d = { Jwm.Codegen.read = Instr.Load 0; visit0 = 11; visit1 = 22 } in
  let snippet, next_local =
    Jwm.Codegen.condition_snippet ~rng ~bits ~discriminator:d ~counter_global:None ~first_local:2
      ~sink_global:0 ()
  in
  let host =
    Asm.func ~name:"main" ~nargs:0 ~nlocals:next_local
      Asm.[
        I (Instr.Const 11); I (Instr.Store 0);
        I (Instr.Const 0); I (Instr.Store 1);
        L "site"; I Instr.Nop;
        I (Instr.Const 22); I (Instr.Store 0);
        I (Instr.Load 1); I (Instr.Const 1); I (Instr.Binop Instr.Add); I (Instr.Store 1);
        I (Instr.Load 1); I (Instr.Const 2); I (Instr.Cmp Instr.Lt); Br (true, "site");
        I (Instr.Const 0); I Instr.Ret;
      ]
  in
  (* the "site" Nop sits at pc 4; insert the snippet there *)
  let f = Rewrite.insert host ~at:4 snippet in
  let prog = Program.make ~nglobals:1 [ f ] in
  Verify.check_exn prog;
  let trace = Trace.capture prog ~input:[] in
  let trace_bits = Trace.bitstring trace in
  let value = List.fold_left (fun acc b -> (acc lsl 1) lor (if b then 1 else 0)) 0 (List.rev bits) in
  (match Util.Bitstring.find_int trace_bits ~width:62 ~value ~stride:1 with
  | Some _ -> ()
  | None -> Alcotest.fail "condition payload not found at stride 1")

let test_find_discriminator_prefers_locals () =
  let s0 = { Trace.locals = [| 1; 2; 3 |]; globals = [| 9 |] } in
  let s1 = { Trace.locals = [| 1; 5; 3 |]; globals = [| 10 |] } in
  match Jwm.Codegen.find_discriminator s0 s1 ~nlocals:3 with
  | Some { read = Instr.Load 1; visit0 = 2; visit1 = 5; _ } -> ()
  | _ -> Alcotest.fail "expected local slot 1 as discriminator"

let test_find_discriminator_falls_back_to_globals () =
  let s0 = { Trace.locals = [| 1; 2 |]; globals = [| 9 |] } in
  let s1 = { Trace.locals = [| 1; 2 |]; globals = [| 10 |] } in
  (match Jwm.Codegen.find_discriminator s0 s1 ~nlocals:2 with
  | Some { read = Instr.Get_global 0; _ } -> ()
  | _ -> Alcotest.fail "expected global 0");
  let s1' = { Trace.locals = [| 1; 2 |]; globals = [| 9 |] } in
  Alcotest.(check bool) "identical snapshots: none" true
    (Jwm.Codegen.find_discriminator s0 s1' ~nlocals:2 = None)

(* ---- embed + recognize end to end ---- *)

let test_embed_preserves_semantics () =
  let report = Jwm.Embed.embed (spec watermark_128) host_program in
  Verify.check_exn report.Jwm.Embed.program;
  Alcotest.(check bool) "equivalent on secret input" true
    (Interp.equivalent_on host_program report.Jwm.Embed.program ~inputs:[ secret_input ]);
  Alcotest.(check bool) "equivalent on other inputs" true
    (Interp.equivalent_on host_program report.Jwm.Embed.program
       ~inputs:[ [ 7; 9 ]; [ 100; 64 ]; [ 1; 1 ] ])

let test_embed_then_recognize () =
  let report = Jwm.Embed.embed (spec watermark_128) host_program in
  let outcome =
    Jwm.Recognize.recognize ~passphrase:"the secret watermark key" ~watermark_bits:128
      ~input:secret_input report.Jwm.Embed.program
  in
  match outcome.Jwm.Recognize.value with
  | Some w -> Alcotest.check big "fingerprint recovered" watermark_128 w
  | None -> Alcotest.fail "recognition failed on unattacked program"

let test_recognize_needs_secret_input () =
  (* With the wrong input the trace differs; recovery should usually fail.
     (40 pieces at sites chosen for the secret input rarely all fire.) *)
  let report = Jwm.Embed.embed (spec watermark_128) host_program in
  let outcome =
    Jwm.Recognize.recognize ~passphrase:"the secret watermark key" ~watermark_bits:128
      ~input:[ 5; 3 ] report.Jwm.Embed.program
  in
  (match outcome.Jwm.Recognize.value with
  | Some w when Bignum.equal w watermark_128 ->
      (* Possible if sites overlap; accept but flag for attention. *)
      ()
  | _ -> ());
  (* the unwatermarked program never yields the mark *)
  let clean =
    Jwm.Recognize.recognize ~passphrase:"the secret watermark key" ~watermark_bits:128
      ~input:secret_input host_program
  in
  Alcotest.(check bool) "no mark in clean program" true
    (match clean.Jwm.Recognize.value with
    | Some w -> not (Bignum.equal w watermark_128)
    | None -> true)

let test_recognize_needs_passphrase () =
  let report = Jwm.Embed.embed (spec watermark_128) host_program in
  let outcome =
    Jwm.Recognize.recognize ~passphrase:"a wrong key" ~watermark_bits:128 ~input:secret_input
      report.Jwm.Embed.program
  in
  Alcotest.(check bool) "wrong key does not recover the mark" true
    (match outcome.Jwm.Recognize.value with
    | Some w -> not (Bignum.equal w watermark_128)
    | None -> true)

let test_embed_distinct_fingerprints () =
  (* Fingerprinting: different watermarks in different copies, both recovered. *)
  let w2 = Bignum.of_string "77777777777777777777777777777" in
  let r1 = Jwm.Embed.embed (spec watermark_128) host_program in
  let r2 = Jwm.Embed.embed (spec w2) host_program in
  let get p =
    (Jwm.Recognize.recognize ~passphrase:"the secret watermark key" ~watermark_bits:128
       ~input:secret_input p)
      .Jwm.Recognize.value
  in
  (match get r1.Jwm.Embed.program with
  | Some w -> Alcotest.check big "copy 1" watermark_128 w
  | None -> Alcotest.fail "copy 1 recognition failed");
  match get r2.Jwm.Embed.program with
  | Some w -> Alcotest.check big "copy 2" w2 w
  | None -> Alcotest.fail "copy 2 recognition failed"

let test_embed_grows_size_linearly_in_pieces () =
  let r20 = Jwm.Embed.embed (spec ~pieces:20 watermark_128) host_program in
  let r40 = Jwm.Embed.embed (spec ~pieces:40 watermark_128) host_program in
  let g20 = r20.Jwm.Embed.bytes_after - r20.Jwm.Embed.bytes_before in
  let g40 = r40.Jwm.Embed.bytes_after - r40.Jwm.Embed.bytes_before in
  Alcotest.(check bool) "growth increases with pieces" true (g40 > g20);
  Alcotest.(check bool) "growth is bounded" true (g40 < 4 * g20)

let test_embed_zero_pieces () =
  let r = Jwm.Embed.embed (spec ~pieces:0 watermark_128) host_program in
  Alcotest.(check int) "no insertions" 0 (List.length r.Jwm.Embed.insertions);
  Alcotest.(check bool) "program equivalent" true
    (Interp.equivalent_on host_program r.Jwm.Embed.program ~inputs:[ secret_input ])

let test_embed_256_and_512_bits () =
  List.iter
    (fun bits ->
      let rng = Util.Prng.create (Int64.of_int bits) in
      let params = Codec.Params.make ~passphrase:"the secret watermark key" ~watermark_bits:bits () in
      let rec draw () =
        let w = Bignum.random_bits rng bits in
        if Codec.Params.fits params w then w else draw ()
      in
      let w = draw () in
      let pieces = Codec.Params.pair_count params + 10 in
      let r = Jwm.Embed.embed (spec ~pieces ~bits w) host_program in
      let outcome =
        Jwm.Recognize.recognize ~passphrase:"the secret watermark key" ~watermark_bits:bits
          ~input:secret_input r.Jwm.Embed.program
      in
      match outcome.Jwm.Recognize.value with
      | Some w' -> Alcotest.check big (Printf.sprintf "%d-bit watermark" bits) w w'
      | None -> Alcotest.failf "%d-bit recognition failed" bits)
    [ 256; 512 ]

let test_embed_deterministic_with_seed () =
  let r1 = Jwm.Embed.embed ~seed:42L (spec watermark_128) host_program in
  let r2 = Jwm.Embed.embed ~seed:42L (spec watermark_128) host_program in
  Alcotest.(check string) "same program bytes" (Serialize.encode r1.Jwm.Embed.program)
    (Serialize.encode r2.Jwm.Embed.program)

(* Embedded programs pinned byte for byte (MD5 of the serialized program):
   the piece cipher, the enumeration and the code generators all feed
   them, so none may drift without every shipped mark going stale. *)
let test_embed_known_answer () =
  let wl = Workloads.Caffeine.suite in
  let host = Workloads.Workload.vm_program wl in
  List.iter
    (fun (bits, pieces, mark, digest) ->
      let spec =
        {
          Jwm.Embed.passphrase = "kat embedding key";
          watermark = Bignum.of_string mark;
          watermark_bits = bits;
          pieces;
          input = wl.Workloads.Workload.input;
        }
      in
      let report = Jwm.Embed.embed ~seed:7L spec host in
      Alcotest.(check string)
        (Printf.sprintf "caffeine jwm-%d digest" bits)
        digest
        (Digest.to_hex (Digest.string (Serialize.encode report.Jwm.Embed.program))))
    [
      (64, 20, "123456789123456789", "d88123cd06372c28b7aaabb8e430397b");
      (256, 60, "98765432109876543210987654321", "ba1b1f3a1c774394fe079078008932d7");
    ]

let suite =
  [
    ("false predicates always 0", `Quick, test_false_predicates_always_zero);
    ("true predicates always 1", `Quick, test_true_predicates_always_one);
    QCheck_alcotest.to_alcotest qcheck_false_predicates;
    ("loop constant fits 62 bits", `Quick, test_loop_constant_fits);
    ("loop snippet emits payload at stride 2", `Quick, test_loop_snippet_emits_bits_at_stride2);
    ("loop snippet stack-neutral", `Quick, test_loop_snippet_is_stack_neutral_and_silent);
    ("condition snippet emits payload", `Quick, test_condition_snippet_emits_payload_on_second_visit);
    ("discriminator prefers locals", `Quick, test_find_discriminator_prefers_locals);
    ("discriminator global fallback", `Quick, test_find_discriminator_falls_back_to_globals);
    ("embed preserves semantics", `Quick, test_embed_preserves_semantics);
    ("embed then recognize", `Quick, test_embed_then_recognize);
    ("recognition is input-keyed", `Quick, test_recognize_needs_secret_input);
    ("recognition is passphrase-keyed", `Quick, test_recognize_needs_passphrase);
    ("distinct fingerprints per copy", `Quick, test_embed_distinct_fingerprints);
    ("size grows with pieces", `Quick, test_embed_grows_size_linearly_in_pieces);
    ("zero pieces is identity-ish", `Quick, test_embed_zero_pieces);
    ("256- and 512-bit watermarks", `Slow, test_embed_256_and_512_bits);
    ("embed deterministic with seed", `Quick, test_embed_deterministic_with_seed);
    ("embedding known answer", `Quick, test_embed_known_answer);
  ]

(* ---- compound predicates (§3.2.2's ANDed conditions) ---- *)

let test_compound_condition_snippet () =
  let rng = Util.Prng.create 61L in
  let bits = List.init 62 (fun i -> i mod 4 = 0) in
  let d = { Jwm.Codegen.read = Instr.Load 0; visit0 = 11; visit1 = 22 } in
  (* a pool with an extra variable whose value is stable across visits *)
  let pool =
    [ d; { Jwm.Codegen.read = Instr.Load 1; visit0 = 5; visit1 = 5 } ]
  in
  (* the snippet's scratch slot starts above the host's locals (0..2) *)
  let snippet2, next_local2 =
    Jwm.Codegen.condition_snippet ~pool ~rng ~bits ~discriminator:d ~counter_global:None
      ~first_local:3 ~sink_global:0 ()
  in
  let host2 =
    Asm.func ~name:"main" ~nargs:0 ~nlocals:next_local2
      Asm.[
        I (Instr.Const 11); I (Instr.Store 0);
        I (Instr.Const 5); I (Instr.Store 1);
        I (Instr.Const 0); I (Instr.Store 2);
        L "site"; I Instr.Nop;
        I (Instr.Const 22); I (Instr.Store 0);
        I (Instr.Load 2); I (Instr.Const 1); I (Instr.Binop Instr.Add); I (Instr.Store 2);
        I (Instr.Load 2); I (Instr.Const 2); I (Instr.Cmp Instr.Lt); Br (true, "site");
        I (Instr.Const 0); I Instr.Ret;
      ]
  in
  (* compound predicates appear: some tests must contain a Binop And *)
  let ands = List.length (List.filter (fun i -> i = Instr.Binop Instr.And) snippet2) in
  Alcotest.(check bool) "compound conditions present" true (ands > 0);
  let f = Rewrite.insert host2 ~at:7 snippet2 in
  let prog = Program.make ~nglobals:1 [ f ] in
  Verify.check_exn prog;
  let trace = Trace.capture prog ~input:[] in
  let trace_bits = Trace.bitstring trace in
  let value = List.fold_left (fun acc b -> (acc lsl 1) lor (if b then 1 else 0)) 0 (List.rev bits) in
  match Util.Bitstring.find_int trace_bits ~width:62 ~value ~stride:1 with
  | Some _ -> ()
  | None -> Alcotest.fail "compound-condition payload not found"

let suite = suite @ [ ("compound condition predicates", `Quick, test_compound_condition_snippet) ]
