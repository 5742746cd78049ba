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
  Trace.record prog ~input:[]

let test_loop_snippet_emits_bits_at_stride2 () =
  let rng = Util.Prng.create 4L in
  for trial = 1 to 20 do
    let bits = List.init 62 (fun _ -> Util.Prng.bool rng) in
    let snippet, next_local = Jwm.Codegen.loop_snippet ~rng ~bits ~first_local:1 ~sink_global:0 () in
    let events, _ = run_snippet_trace snippet ~nlocals:next_local ~nglobals:1 in
    let trace_bits = Trace.bits_of_buf events in
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
  let _, result = run_snippet_trace snippet ~nlocals:next_local ~nglobals:1 in
  (match result.Interp.outcome with
  | Interp.Finished 0 -> ()
  | _ -> Alcotest.fail "snippet altered program result");
  Alcotest.(check (list int)) "no output" [] result.Interp.outputs

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
  let events, _ = Trace.record prog ~input:[] in
  let trace_bits = Trace.bits_of_buf events in
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
    (Compile.equivalent_on host_program report.Jwm.Embed.program ~inputs:[ secret_input ]);
  Alcotest.(check bool) "equivalent on other inputs" true
    (Compile.equivalent_on host_program report.Jwm.Embed.program
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
    (Compile.equivalent_on host_program r.Jwm.Embed.program ~inputs:[ secret_input ])

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

(* The same pin over every VM workload: jwm-64 plain and stealth and
   jwm-256 at two seeds each, then one gwm-64 embed, in that order. *)
let corpus_known_answers =
  [
    ( "bzip2",
      [ "b176614235b9250d8d8b43b4b03a0f1d";
        "ff6473e56e30499b7701235823bc8f96";
        "81db13b039ee1fe0da2fdad23614a8b7";
        "2ddcb25e257b990df8bdb1e3b4ec5685";
        "0be7337f4a969adf4f6cf72cd9eac34a";
        "1d9e686086b4c4c2730e03f378349aaf";
        "bacb45cab1f1b1558fa8c6daddd3aa22" ] );
    ( "crafty",
      [ "12bd8cefae65097b38f20a81eab82d35";
        "449c7ed1027be92a587ad12e4f00644c";
        "cc4e7315e3d0373f5bd84be64f95a1e4";
        "9d97a28ec2170b6cf71ea92dac9bd51d";
        "c3d19a9756bbd2d72729903b09ff59e4";
        "a2a11f8e558deb8517183aa41b6898ca";
        "9ace7d43624579b32ec3a7ed649efa93" ] );
    ( "gap",
      [ "97c07fef9431deaaf24341f21cbaa02d";
        "a4e20ab527dc23deca424e00f17435ae";
        "1796a82e8bb26bd5b6f53a5cf04fdb08";
        "b5f0100a871bf9e4dcdeeaa006cc8fef";
        "650faa5811ae805abe196d90299bdb2c";
        "be43c85431564b8e504d1ebebe93d26a";
        "b86f02d2da60b7132500bcefba1467cf" ] );
    ( "gcc",
      [ "5931b1f51c283c2fd9fb963891250bab";
        "d126a931f7f3edf8a603e4380c5feba8";
        "c933af0e6a9be357a265ee899a2ca0f4";
        "8f30c8494e02be3cc0f58e5b5b18fe86";
        "6b49f090c3121dc7687d0441d36b5ea4";
        "c5e16aca9f19916ba5898a0da40a1b31";
        "c337d2c13e65fa310056c75ef5e615ad" ] );
    ( "gzip",
      [ "58e2a89b6a0eed2212bfa53d41a34824";
        "ae56caa1630f573a1215fb30827cee12";
        "2edf8e08c13f51189a2736744abcfd34";
        "f655fb05e1229e8457403e142f8d8c13";
        "177e3f0d7d60503dd289e85f24d5751f";
        "e14b72d61fa8d45731ba9160a3bb4ae9";
        "8c5ab6049b939948182a8435c860d094" ] );
    ( "mcf",
      [ "5839fcc754b81b0cdf6a91433a63b7fb";
        "78fe14ba62337d43137857f68b3ca8ee";
        "780c2fce8dac7445deac1a7e02594d47";
        "3ab2585fb07c0dad5caae65b51d8e1a5";
        "de6317ce3077ee7ce566672699bd5df4";
        "04878f99477ce9a52bddaaccfa12a42f";
        "5240024deefe8ccf8c16e9b54fae8030" ] );
    ( "parser",
      [ "cb39312daee66e1689690ea2a65515a1";
        "df9f248bbc6df703a43bea06697a1a43";
        "fbf56607e7921f0e7a087ff2ecb01121";
        "2d855f14f93c11181297897ca2c5ebae";
        "b469f528cd6a78239dfae7c2dcbb06bb";
        "c2c3debe2caeb288b2e29d8606486561";
        "d201f83a9aa808d5535024939c4fc7c6" ] );
    ( "twolf",
      [ "b33eeb89623a29c10c5544d10047798a";
        "64472e483a7e84f56c99da5077aa5030";
        "91a65782f574009f26afde9938b7f58c";
        "af4909e362ec5c120cd685ee74fcd06d";
        "af3790f96198e7393b4c92db4797f813";
        "7ffb72ce2f3fab95aeb895b0e1e1035b";
        "bd693a807109b0b2dc9a4c9a3d2e5622" ] );
    ( "vortex",
      [ "526eb583de0971252acea9f002c872ac";
        "69897a6b7c85026d7f01cc9718311331";
        "b788908af51f6408c5fdd26c93f7862b";
        "918fa11e55b1f25a713587f05c5596b3";
        "432e9922ec3947acda3507b29fe7eb58";
        "4450076d56686481fb48ff657c657232";
        "c2ceb5c6bea79e6198ef660d59b53fbe" ] );
    ( "vpr",
      [ "8fd0c32af055fd6bb9affb03a6980a1f";
        "986903b824df4435733b1454b121fde8";
        "5a10c447861684d9d945fdbc4934be17";
        "9b0cd87c2e71d05d6912a8137d235ff9";
        "a62f36a5bc928e733c8245621ef5d4cb";
        "e82ae282253667dc9b9b409b6bb2ba30";
        "cc068c351d4e25e4c5ee1421628ec191" ] );
    ( "caffeine",
      [ "5574cab54bf690ca6cab0110df385386";
        "155385eff1dbec9d7ca10ea45e99f753";
        "48e725b9d71b000b38d51ea34b42634f";
        "80fa5998b19b6cfa8d6d6030086feb3d";
        "17db108da3ec66ade96428f6e24d0134";
        "0d604a54e82ef2ce572a322c5be9e49f";
        "2a3af9019a27e31af63a1ea6af15fc5e" ] );
    ( "caffeine-sieve",
      [ "64365edd8d697c251c38f4f48dc869da";
        "baa8890eee42fb44966781d2d862fa4c";
        "d096864ea12a9c0adbae8608dde671e9";
        "c54b7059152ef010e46397754f24c8c9";
        "2eac0575842784285f9f833c13fbb5be";
        "49e7ce55ae64f680cc4a2e78e722d1d4";
        "f58d222d361f2c3b1b73671f01b13b2f" ] );
    ( "caffeine-loop",
      [ "4a7e5014fabf92f3d86bd4607a95368b";
        "08f9493f012d9ab538a833ab4ffc0adf";
        "5c534dae6d2682a532d15d0ee1b2da94";
        "451c29c1cff742ae61f4b47cacb694cf";
        "aa643af0e8b4c5ebce9560e4f0a64cfb";
        "2887acff1d03fada567f3faa4d32506c";
        "9796f00d09e5838fe7d5d1cea827b6a8" ] );
    ( "caffeine-logic",
      [ "d91da99961fbe60d3c15f241ced27b31";
        "82360b7342c9f5144cc8433647bd0c44";
        "a6f223b076e21661145dbc1469cc4bf1";
        "9a3bfd352e4ba421cf160d91e20f4a59";
        "6d73b90f82e2be182ca172418973521a";
        "375d8a67950e56bbcc0aaeb06042a0fe";
        "0a9734d2c0f0b8ab4e7fc74e65365cdf" ] );
    ( "caffeine-method",
      [ "2175739d4e276cdb3d25b3ee87c5f2bd";
        "f360bd64ee7270c63a57f79691ce3ebf";
        "3e64cf1703f60f2ea64fa12286f0f264";
        "5684db598e578f88cc877570ff78e7b9";
        "e74358028c51ddacc44b827f14472718";
        "abc270cb10fbe544bd8ac420a97ffd5b";
        "b6f28de18c2684e9d3bd09e515e44f2b" ] );
    ( "caffeine-array",
      [ "7dd2d97078069761e443970dee18265d";
        "a00172b1c019d5ea045b0930b1d99ff0";
        "6a064756aab6c9fa93cb4d29a3030426";
        "1100352ce92599aa9588ad109ccb068e";
        "c7e081476b2b3206924da094d44d18cb";
        "9ac86c2e4bad109a2fd71058eb98ff8e";
        "f3acecf26ffeb3169021ca1f559b7234" ] );
    ( "jess",
      [ "754af7de3f255102e67c17a21ec05976";
        "33070e240d2fccb3fc02e7cca8d14d3d";
        "6aee9d31813658836f27755db2bc76af";
        "e4f218c9169414842dee906ca6b487ff";
        "db93b5b5e4bd1b92cf37a5439a451a6d";
        "ef860e1bc91b9b3d3b06d920b52cae32";
        "1d023bbe598a9d6e3462be8bdb43a72e" ] );
    ( "miniinterp",
      [ "d3171e20f4efd8047c51288a6425e64e";
        "af482c9277580f488649899a2122133f";
        "b9258ead93b90700d70be5a204c7e735";
        "b50745f31a166cf9263044704066a848";
        "f93bd3397bb927211857116a22f2001d";
        "3a3e6240bcc93f11bdad0b5e243cefc4";
        "df93f2ec55b64bcd476fdcc9f4f822a0" ] )
  ]

let test_corpus_known_answer () =
  let key = "kat embedding key" in
  let m64 = Bignum.of_string "987654321987654321" in
  let m256 = Bignum.of_string "31415926535897932384626433832795028841971693993751058209749445923" in
  let md5 p = Digest.to_hex (Digest.string (Serialize.encode p)) in
  Alcotest.(check int) "one row per workload" (List.length Vm_corpus.workloads) (List.length corpus_known_answers);
  List.iter2
    (fun (wl : Workloads.Workload.t) (name, digests) ->
      Alcotest.(check string) "workload order" name wl.name;
      let host = Workloads.Workload.vm_program wl and input = wl.input in
      let jwm (bits, pieces, mark, stealth, seed) =
        let spec = { Jwm.Embed.passphrase = key; watermark = mark; watermark_bits = bits; pieces; input } in
        (Printf.sprintf "%s jwm-%d%s seed %Ld" name bits (if stealth then " stealth" else "") seed,
          md5 (Jwm.Embed.embed ~seed ~stealth spec host).Jwm.Embed.program)
      in
      let gwm =
        let spec = { Gwm.Embed.passphrase = key; watermark = m64; watermark_bits = 64; copies = 8; input } in
        (name ^ " gwm-64", md5 (Gwm.Embed.embed ~seed:7L spec host).Gwm.Embed.program)
      in
      let got =
        List.map jwm
          [
            (64, 20, m64, false, 7L);
            (64, 20, m64, false, 11L);
            (64, 20, m64, true, 7L);
            (64, 20, m64, true, 11L);
            (256, 60, m256, false, 7L);
            (256, 60, m256, false, 11L);
          ]
        @ [ gwm ]
      in
      List.iter2 (fun (what, got) expected -> Alcotest.(check string) what expected got) got digests)
    Vm_corpus.workloads corpus_known_answers

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
    ("embedding known answer, all workloads", `Quick, test_corpus_known_answer);
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
  let events, _ = Trace.record prog ~input:[] in
  let trace_bits = Trace.bits_of_buf events in
  let value = List.fold_left (fun acc b -> (acc lsl 1) lor (if b then 1 else 0)) 0 (List.rev bits) in
  match Util.Bitstring.find_int trace_bits ~width:62 ~value ~stride:1 with
  | Some _ -> ()
  | None -> Alcotest.fail "compound-condition payload not found"

let suite = suite @ [ ("compound condition predicates", `Quick, test_compound_condition_snippet) ]
