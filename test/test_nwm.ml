(* Tests for the native branch-function watermarker: perfect hashing,
   slot permutation, embedding, simple/smart extraction, tamper-proofing. *)

open Nativesim

let big = Alcotest.testable Bignum.pp Bignum.equal

(* A host program with input-driven behaviour and a few cold direct jumps:
   reads n, prints the sum 1..n and a parity flag via separate paths. *)
let host_program =
  {
    Asm.text =
      Asm.[
        I (Insn.In 0); (* n *)
        I (Insn.Mov_imm (1, 0)); (* acc *)
        I (Insn.Mov_imm (2, 1)); (* i *)
        L "loop";
        I (Insn.Cmp (2, 0));
        Jcc (Insn.Gt, Lbl "after");
        I (Insn.Alu (Insn.Add, 1, 2));
        I (Insn.Alu_imm (Insn.Add, 2, 1));
        Jmp (Lbl "loop");
        L "after";
        I (Insn.Out 1);
        (* parity check with two cold paths joined by direct jumps *)
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

let training_input = [ 6 ]


let w64 = Bignum.of_string "13105294131850248109"

(* ---- slot permutation ---- *)

let test_bitperm_roundtrip () =
  let rng = Util.Prng.create 3L in
  for _ = 1 to 100 do
    let k = 1 + Util.Prng.int rng 80 in
    let w = List.init k (fun _ -> Util.Prng.bool rng) in
    let pi = Nwm.Bitperm.slots w in
    (* permutation of 0..k *)
    let sorted = List.sort compare (Array.to_list pi) in
    Alcotest.(check (list int)) "permutation" (List.init (k + 1) Fun.id) sorted;
    (* decoding the slot order recovers the bits *)
    let decoded = Nwm.Bitperm.bits_of_addresses (Array.to_list pi) in
    Alcotest.(check (list bool)) "roundtrip" w decoded
  done

(* ---- perfect hashing ---- *)

let test_phash_small () =
  let rng = Util.Prng.create 5L in
  let keys = [ 0x1005; 0x1032; 0x1107; 0x2222; 0x39ab ] in
  let h = Phash.build ~rng ~keys in
  Alcotest.(check bool) "perfect" true (Phash.is_perfect h ~keys)

let test_phash_many_keys () =
  let rng = Util.Prng.create 7L in
  (* 513 keys shaped like real call-site return addresses (10 bytes apart) *)
  let keys = List.init 513 (fun i -> 0x1000 + 7 + (10 * i)) in
  let h = Phash.build ~rng ~keys in
  Alcotest.(check bool) "perfect on 513 keys" true (Phash.is_perfect h ~keys);
  List.iter
    (fun key ->
      let v = Phash.eval h key in
      Alcotest.(check bool) "in range" true (v >= 0 && v < 1 lsl Phash.table_bits))
    keys

let qcheck_phash_random_keys =
  QCheck.Test.make ~name:"phash perfect on random key sets" ~count:50 (QCheck.int_bound 1_000_000) (fun seed ->
      let rng = Util.Prng.create (Int64.of_int (seed + 1)) in
      let n = 20 + Util.Prng.int rng 200 in
      let seen = Hashtbl.create 64 in
      let keys =
        List.filter_map
          (fun _ ->
            let k = 0x1000 + Util.Prng.int rng 200000 in
            if Hashtbl.mem seen k then None
            else begin
              Hashtbl.add seen k ();
              Some k
            end)
          (List.init n Fun.id)
      in
      let h = Phash.build ~rng ~keys in
      Phash.is_perfect h ~keys)

(* ---- embedding ---- *)

let embed ?(bits = 64) ?(tamper_proof = true) watermark =
  Nwm.Embed.embed ~seed:77L ~tamper_proof ~watermark ~bits ~training_input host_program

let test_embed_preserves_behaviour () =
  let base = Asm.assemble host_program in
  let r = embed w64 in
  List.iter
    (fun input ->
      let r0 = Machine.run base ~input in
      let r1 = Machine.run r.Nwm.Embed.binary ~input in
      Alcotest.(check bool)
        (Printf.sprintf "same behaviour on input %d" (List.hd input))
        true
        (Machine.outputs_equal r0 r1))
    [ [ 6 ]; [ 1 ]; [ 17 ]; [ 0 ] ]

let test_embed_has_tamper_cells () =
  let r = embed w64 in
  Alcotest.(check bool) "some jumps tamper-proofed" true (r.Nwm.Embed.tamper_cells >= 2)

let test_embed_size_overhead () =
  let r = embed w64 in
  Alcotest.(check bool) "size grew" true (r.Nwm.Embed.bytes_after > r.Nwm.Embed.bytes_before)

let test_extract_smart () =
  let r = embed w64 in
  match
    Nwm.Extract.extract r.Nwm.Embed.binary ~begin_addr:r.Nwm.Embed.begin_addr
      ~end_addr:r.Nwm.Embed.end_addr ~input:[ 6 ]
  with
  | Error e -> Alcotest.fail e
  | Ok ex ->
      Alcotest.(check int) "bit count" 64 (List.length ex.Nwm.Extract.bits);
      Alcotest.check big "watermark recovered" w64 (Nwm.Extract.watermark ex)

let test_extract_simple () =
  let r = embed w64 in
  match
    Nwm.Extract.extract ~kind:Nwm.Extract.Simple r.Nwm.Embed.binary
      ~begin_addr:r.Nwm.Embed.begin_addr ~end_addr:r.Nwm.Embed.end_addr ~input:[ 6 ]
  with
  | Error e -> Alcotest.fail e
  | Ok ex -> Alcotest.check big "simple tracer works on unattacked binary" w64 (Nwm.Extract.watermark ex)

let test_extract_identifies_branch_function () =
  let r = embed w64 in
  match
    Nwm.Extract.extract r.Nwm.Embed.binary ~begin_addr:r.Nwm.Embed.begin_addr
      ~end_addr:r.Nwm.Embed.end_addr ~input:[ 6 ]
  with
  | Error e -> Alcotest.fail e
  | Ok ex -> Alcotest.(check int) "f entry" r.Nwm.Embed.f_entry ex.Nwm.Extract.f_entry

let test_extract_call_sites_match () =
  let r = embed w64 in
  match
    Nwm.Extract.extract r.Nwm.Embed.binary ~begin_addr:r.Nwm.Embed.begin_addr
      ~end_addr:r.Nwm.Embed.end_addr ~input:[ 6 ]
  with
  | Error e -> Alcotest.fail e
  | Ok ex -> Alcotest.(check (list int)) "chain order" r.Nwm.Embed.call_slots ex.Nwm.Extract.call_sites

let test_various_widths () =
  List.iter
    (fun bits ->
      let rng = Util.Prng.create (Int64.of_int bits) in
      let w = Bignum.random_bits rng bits in
      let r = embed ~bits w in
      match
        Nwm.Extract.extract r.Nwm.Embed.binary ~begin_addr:r.Nwm.Embed.begin_addr
          ~end_addr:r.Nwm.Embed.end_addr ~input:[ 6 ]
      with
      | Error e -> Alcotest.failf "%d bits: %s" bits e
      | Ok ex -> Alcotest.check big (Printf.sprintf "%d-bit watermark" bits) w (Nwm.Extract.watermark ex))
    [ 16; 128; 256; 512 ]

let test_embed_without_tamper_proofing () =
  let r = embed ~tamper_proof:false w64 in
  Alcotest.(check int) "no cells" 0 r.Nwm.Embed.tamper_cells;
  let r0 = Machine.run (Asm.assemble host_program) ~input:[ 6 ] in
  let r1 = Machine.run r.Nwm.Embed.binary ~input:[ 6 ] in
  Alcotest.(check bool) "behaviour preserved" true (Machine.outputs_equal r0 r1)

let test_fingerprints_differ () =
  let w2 = Bignum.of_string "4242424242424242424" in
  let r1 = embed w64 and r2 = embed w2 in
  let get (r : Nwm.Embed.report) =
    match
      Nwm.Extract.extract r.Nwm.Embed.binary ~begin_addr:r.Nwm.Embed.begin_addr
        ~end_addr:r.Nwm.Embed.end_addr ~input:[ 6 ]
    with
    | Ok ex -> Nwm.Extract.watermark ex
    | Error e -> Alcotest.fail e
  in
  Alcotest.check big "copy 1" w64 (get r1);
  Alcotest.check big "copy 2" w2 (get r2)

let qcheck_embed_extract =
  QCheck.Test.make ~name:"embed/extract roundtrip on random marks" ~count:15 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Prng.create (Int64.of_int (seed + 31)) in
      let bits = 8 + Util.Prng.int rng 120 in
      let w = Bignum.random_bits rng bits in
      let r = Nwm.Embed.embed ~seed:(Int64.of_int seed) ~watermark:w ~bits ~training_input host_program in
      match
        Nwm.Extract.extract r.Nwm.Embed.binary ~begin_addr:r.Nwm.Embed.begin_addr
          ~end_addr:r.Nwm.Embed.end_addr ~input:[ 6 ]
      with
      | Ok ex -> Bignum.equal (Nwm.Extract.watermark ex) w
      | Error _ -> false)

let suite =
  [
    ("bitperm roundtrip", `Quick, test_bitperm_roundtrip);
    ("phash small", `Quick, test_phash_small);
    ("phash 513 keys", `Quick, test_phash_many_keys);
    QCheck_alcotest.to_alcotest qcheck_phash_random_keys;
    ("embed preserves behaviour", `Quick, test_embed_preserves_behaviour);
    ("embed tamper-proofs jumps", `Quick, test_embed_has_tamper_cells);
    ("embed grows size", `Quick, test_embed_size_overhead);
    ("extract (smart tracer)", `Quick, test_extract_smart);
    ("extract (simple tracer)", `Quick, test_extract_simple);
    ("extract identifies branch function", `Quick, test_extract_identifies_branch_function);
    ("extract call sites in chain order", `Quick, test_extract_call_sites_match);
    ("16/128/256/512-bit watermarks", `Quick, test_various_widths);
    ("embedding without tamper-proofing", `Quick, test_embed_without_tamper_proofing);
    ("distinct fingerprints", `Quick, test_fingerprints_differ);
    QCheck_alcotest.to_alcotest qcheck_embed_extract;
  ]

(* ---- scattered placement (§4.2.2's construction over existing text) ---- *)

let test_scattered_placement_roundtrip () =
  (* jess-native has plenty of unconditional jumps to anchor on *)
  let w = Workloads.Jesslite.engine in
  let prog = Workloads.Workload.native_program w in
  let input = w.Workloads.Workload.input in
  let r =
    Nwm.Embed.embed ~seed:9L ~placement:Nwm.Embed.Scattered ~watermark:w64 ~bits:64
      ~training_input:input prog
  in
  (* behaviour preserved *)
  let r0 = Machine.run (Asm.assemble prog) ~input in
  let r1 = Machine.run r.Nwm.Embed.binary ~input in
  Alcotest.(check bool) "behaviour preserved" true (Machine.outputs_equal r0 r1);
  (* the mark extracts *)
  (match
     Nwm.Extract.extract r.Nwm.Embed.binary ~begin_addr:r.Nwm.Embed.begin_addr
       ~end_addr:r.Nwm.Embed.end_addr ~input
   with
  | Error e -> Alcotest.fail e
  | Ok ex -> Alcotest.check big "scattered watermark" w64 (Nwm.Extract.watermark ex));
  (* the slots really are scattered: their address range spans most of the
     original text rather than a compact region *)
  let sorted = List.sort compare r.Nwm.Embed.call_slots in
  let lo = List.hd sorted and hi = List.nth sorted (List.length sorted - 1) in
  Alcotest.(check bool) "slots span the text" true
    (hi - lo > (Binary.text_end r.Nwm.Embed.binary - Layout.text_base) / 2)

let test_scattered_needs_enough_anchors () =
  (* the tiny host cannot host a 512-bit scattered watermark *)
  match
    Nwm.Embed.embed ~placement:Nwm.Embed.Scattered ~watermark:(Bignum.of_int 1) ~bits:512
      ~training_input:training_input host_program
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for too few anchors"

let test_scattered_survives_reroute_with_smart_tracer () =
  let w = Workloads.Jesslite.engine in
  let prog = Workloads.Workload.native_program w in
  let input = w.Workloads.Workload.input in
  let r =
    Nwm.Embed.embed ~seed:9L ~placement:Nwm.Embed.Scattered ~watermark:w64 ~bits:64
      ~training_input:input prog
  in
  let rng = Util.Prng.create 3L in
  let attacked =
    Nattacks.Attacks.reroute rng r.Nwm.Embed.binary ~begin_addr:r.Nwm.Embed.begin_addr
      ~end_addr:r.Nwm.Embed.end_addr ~input
  in
  match
    Nwm.Extract.extract ~kind:Nwm.Extract.Smart attacked ~begin_addr:r.Nwm.Embed.begin_addr
      ~end_addr:r.Nwm.Embed.end_addr ~input
  with
  | Error e -> Alcotest.fail e
  | Ok ex -> Alcotest.check big "smart tracer on scattered + reroute" w64 (Nwm.Extract.watermark ex)

let scattered_suite =
  [
    ("scattered placement roundtrip", `Quick, test_scattered_placement_roundtrip);
    ("scattered needs enough anchors", `Quick, test_scattered_needs_enough_anchors);
    ("scattered + reroute + smart tracer", `Quick, test_scattered_survives_reroute_with_smart_tracer);
  ]

let suite = suite @ scattered_suite

(* ---- decoy jump obfuscation (§4.2.1) ---- *)

let test_obfuscated_jumps_roundtrip () =
  let w = Workloads.Spec.find "parser" in
  let prog = Workloads.Workload.native_program w in
  let input = w.Workloads.Workload.input in
  let r =
    Nwm.Embed.embed ~seed:21L ~obfuscate_jumps:6 ~watermark:w64 ~bits:64 ~training_input:input prog
  in
  (* behaviour preserved with decoys active *)
  let r0 = Machine.run (Asm.assemble prog) ~input in
  let r1 = Machine.run r.Nwm.Embed.binary ~input in
  Alcotest.(check bool) "behaviour preserved" true (Machine.outputs_equal r0 r1);
  (* the watermark still extracts *)
  (match
     Nwm.Extract.extract r.Nwm.Embed.binary ~begin_addr:r.Nwm.Embed.begin_addr
       ~end_addr:r.Nwm.Embed.end_addr ~input
   with
  | Error e -> Alcotest.fail e
  | Ok ex -> Alcotest.check big "watermark with decoys" w64 (Nwm.Extract.watermark ex));
  (* there really are more calls to the branch function than chain slots *)
  let f_entry = r.Nwm.Embed.f_entry in
  let calls_to_f =
    List.length
      (List.filter
         (fun (_, insn) -> match insn with Insn.Call t -> t = f_entry | _ -> false)
         (Disasm.disassemble r.Nwm.Embed.binary))
  in
  Alcotest.(check bool) "decoy calls present" true (calls_to_f > 65)

let suite =
  suite @ [ ("obfuscated decoy jumps", `Quick, test_obfuscated_jumps_roundtrip) ]

(* ---- extraction failure modes ---- *)

let test_extract_on_unwatermarked () =
  (* no branch function in a plain binary: extraction must report an error,
     not invent a mark *)
  let bin = Asm.assemble host_program in
  match
    Nwm.Extract.extract bin ~begin_addr:Nativesim.Layout.text_base
      ~end_addr:(Binary.text_end bin - 1) ~input:[ 6 ]
  with
  | Ok _ -> Alcotest.fail "extracted a mark from a clean binary"
  | Error _ -> ()

let test_extract_wrong_window () =
  (* a window that control never enters yields an empty-trace error *)
  let r = embed w64 in
  match
    Nwm.Extract.extract r.Nwm.Embed.binary ~begin_addr:0x9999 ~end_addr:0x9999 ~input:[ 6 ]
  with
  | Ok _ -> Alcotest.fail "extracted from a never-entered window"
  | Error _ -> ()

let test_extract_zero_bit_mark () =
  (* bits = 1 is the smallest mark: two calls, one comparison *)
  let r =
    Nwm.Embed.embed ~seed:3L ~watermark:Bignum.one ~bits:1 ~training_input:training_input
      host_program
  in
  match
    Nwm.Extract.extract r.Nwm.Embed.binary ~begin_addr:r.Nwm.Embed.begin_addr
      ~end_addr:r.Nwm.Embed.end_addr ~input:[ 6 ]
  with
  | Error e -> Alcotest.fail e
  | Ok ex -> Alcotest.check big "1-bit mark" Bignum.one (Nwm.Extract.watermark ex)

let failure_suite =
  [
    ("extract on unwatermarked binary", `Quick, test_extract_on_unwatermarked);
    ("extract with wrong window", `Quick, test_extract_wrong_window);
    ("1-bit watermark", `Quick, test_extract_zero_bit_mark);
  ]

let suite = suite @ failure_suite
