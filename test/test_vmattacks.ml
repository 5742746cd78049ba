(* Tests for the distortive attack suite: every attack must preserve
   semantics and verifier-cleanliness; the watermark must survive the
   attacks the paper reports surviving (§5.1.2). *)

open Stackvm

(* Reuse the branchy host from the jwm tests. *)
let host_program = Test_jwm.host_program
let secret_input = Test_jwm.secret_input

let test_inputs = [ secret_input; [ 7; 9 ]; [ 100; 64 ]; [ 1; 1 ]; [ 13; 13 ] ]

let watermark = Bignum.of_string "240543712258492747216458290490865902517"

let watermarked =
  lazy
    (Jwm.Embed.embed
       {
         Jwm.Embed.passphrase = "the secret watermark key";
         watermark;
         watermark_bits = 128;
         pieces = 45;
         input = secret_input;
       }
       host_program)
      .Jwm.Embed.program

let recognize_in prog =
  match
    (Jwm.Recognize.recognize ~passphrase:"the secret watermark key" ~watermark_bits:128
       ~input:secret_input prog)
      .Jwm.Recognize.value
  with
  | Some w -> Bignum.equal w watermark
  | None -> false

let check_attack_preserves name attack =
  let rng = Util.Prng.create 7L in
  let attacked = attack rng host_program in
  (match Verify.check attacked with
  | Ok () -> ()
  | Error es ->
      Alcotest.failf "%s: attacked program does not verify: %s" name
        (Format.asprintf "%a" Verify.pp_error (List.hd es)));
  Alcotest.(check bool) (name ^ " semantics preserved") true
    (Compile.equivalent_on host_program attacked ~inputs:test_inputs)

let test_all_attacks_preserve_semantics () =
  List.iter (fun (name, attack) -> check_attack_preserves name attack) Vmattacks.Attacks.all

let test_attacks_preserve_watermarked_semantics () =
  let wm = Lazy.force watermarked in
  List.iter
    (fun (name, attack) ->
      let rng = Util.Prng.create 11L in
      let attacked = attack rng wm in
      Alcotest.(check bool) (name ^ " on watermarked program") true
        (Compile.equivalent_on wm attacked ~inputs:test_inputs))
    Vmattacks.Attacks.all

let surviving_attacks =
  (* Every attack except heavy branch insertion should leave the mark
     recoverable (block duplication may split a snippet's branch identity,
     but at count 3 on this host it is overwhelmingly likely to miss). *)
  [
    "nop-insertion";
    "block-reorder";
    "branch-sense-inversion";
    "goto-chaining";
    "block-splitting";
    "instruction-reorder";
    "local-permute";
    "constant-split";
    "dead-code-insertion";
    "method-proxy";
    "inline-calls";
  ]

let test_watermark_survives_attacks () =
  let wm = Lazy.force watermarked in
  Alcotest.(check bool) "baseline recognition" true (recognize_in wm);
  List.iter
    (fun name ->
      let attack = List.assoc name Vmattacks.Attacks.all in
      let rng = Util.Prng.create 13L in
      let attacked = attack rng wm in
      Alcotest.(check bool) (name ^ ": watermark survives") true (recognize_in attacked))
    surviving_attacks

let test_watermark_survives_moderate_branch_insertion () =
  let wm = Lazy.force watermarked in
  let rng = Util.Prng.create 17L in
  let attacked = Vmattacks.Attacks.branch_insertion ~rate:0.25 rng wm in
  Alcotest.(check bool) "survives 25% branch insertion" true (recognize_in attacked)

let test_attack_composition () =
  (* Chain several attacks; the mark should still be recoverable. *)
  let wm = Lazy.force watermarked in
  let rng = Util.Prng.create 19L in
  let attacked =
    wm
    |> Vmattacks.Attacks.nop_insertion ~rate:0.2 rng
    |> Vmattacks.Attacks.block_reorder rng
    |> Vmattacks.Attacks.branch_sense_invert ~fraction:0.5 rng
    |> Vmattacks.Attacks.constant_split ~fraction:0.3 rng
  in
  Verify.check_exn attacked;
  Alcotest.(check bool) "composed attacks: semantics" true
    (Compile.equivalent_on wm attacked ~inputs:test_inputs);
  Alcotest.(check bool) "composed attacks: watermark survives" true (recognize_in attacked)

let test_branch_insertion_adds_branches () =
  let rng = Util.Prng.create 23L in
  let count prog =
    Array.fold_left
      (fun acc (f : Program.func) ->
        acc + Array.fold_left (fun a i -> if Instr.is_branch i then a + 1 else a) 0 f.Program.code)
      0 prog.Program.funcs
  in
  let before = count host_program in
  let attacked = Vmattacks.Attacks.branch_insertion ~rate:1.0 rng host_program in
  let after = count attacked in
  Alcotest.(check bool) "roughly doubles branch count" true
    (after >= before + (before / 2) && after <= before * 3)

let test_program_encryption_defeats_instrumentation () =
  let wm = Lazy.force watermarked in
  let pkg = Vmattacks.Attacks.encrypt_package ~key:99L wm in
  (* static instrumentation (bytecode rewriting) fails *)
  Alcotest.(check bool) "static instrumenter blind" true
    (Vmattacks.Attacks.static_instrument pkg = None);
  (* the package still runs, with identical behaviour *)
  let r = Vmattacks.Attacks.run_package pkg ~input:secret_input in
  let r0 = Interp.run wm ~input:secret_input in
  Alcotest.(check (list int)) "package runs identically" r0.Interp.outputs r.Interp.outputs;
  (* ciphertext is not the plaintext serialization *)
  Alcotest.(check bool) "bytes are encrypted" true
    (Vmattacks.Attacks.package_bytes pkg <> Serialize.encode wm)

let test_vm_tracing_recovers_from_encryption () =
  (* §5.1.2: tracing through the VM's profiling interface still sees the
     decoded bytecode, so recognition survives class encryption. *)
  let wm = Lazy.force watermarked in
  let pkg = Vmattacks.Attacks.encrypt_package ~key:99L wm in
  let trace = Vmattacks.Attacks.vm_trace_package pkg ~input:secret_input in
  let bits = Trace.bitstring trace in
  let params = Codec.Params.make ~passphrase:"the secret watermark key" ~watermark_bits:128 () in
  let report = Codec.Recombine.recover_from_bitstring params bits in
  match report.Codec.Recombine.value with
  | Some w -> Alcotest.(check bool) "recovered via VM tracing" true (Bignum.equal w watermark)
  | None -> Alcotest.fail "VM-level tracing failed to recover the mark"

let test_attacks_deterministic () =
  List.iter
    (fun (name, attack) ->
      let p1 = attack (Util.Prng.create 3L) host_program in
      let p2 = attack (Util.Prng.create 3L) host_program in
      Alcotest.(check string) (name ^ " deterministic") (Serialize.encode p1) (Serialize.encode p2))
    Vmattacks.Attacks.all

let qcheck_attacks_random_seeds =
  QCheck.Test.make ~name:"attacks preserve semantics under random seeds" ~count:30
    QCheck.(pair (int_bound (List.length Vmattacks.Attacks.all - 1)) small_nat)
    (fun (which, seed) ->
      let _, attack = List.nth Vmattacks.Attacks.all which in
      let rng = Util.Prng.create (Int64.of_int (seed + 1)) in
      let attacked = attack rng host_program in
      match Verify.check attacked with
      | Error _ -> false
      | Ok () -> Compile.equivalent_on host_program attacked ~inputs:[ secret_input; [ 9; 12 ] ])

let suite =
  [
    ("all attacks preserve semantics", `Quick, test_all_attacks_preserve_semantics);
    ("attacks preserve watermarked semantics", `Quick, test_attacks_preserve_watermarked_semantics);
    ("watermark survives attack suite", `Slow, test_watermark_survives_attacks);
    ("watermark survives moderate branch insertion", `Quick, test_watermark_survives_moderate_branch_insertion);
    ("attack composition", `Quick, test_attack_composition);
    ("branch insertion adds branches", `Quick, test_branch_insertion_adds_branches);
    ("program encryption defeats instrumentation", `Quick, test_program_encryption_defeats_instrumentation);
    ("VM tracing recovers from encryption", `Quick, test_vm_tracing_recovers_from_encryption);
    ("attacks deterministic", `Quick, test_attacks_deterministic);
    QCheck_alcotest.to_alcotest qcheck_attacks_random_seeds;
  ]

(* ---- attacks on MiniC-compiled workloads (integration) ---- *)

let test_attacks_on_compiled_workloads () =
  (* the attack suite must hold up on compiler-generated code, not just
     hand-written hosts *)
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let prog = Workloads.Workload.vm_program w in
      let inputs = [ w.Workloads.Workload.input ] in
      List.iter
        (fun (name, attack) ->
          let rng = Util.Prng.create 31L in
          let attacked = attack rng prog in
          (match Verify.check attacked with
          | Ok () -> ()
          | Error _ -> Alcotest.failf "%s on %s does not verify" name w.Workloads.Workload.name);
          Alcotest.(check bool)
            (Printf.sprintf "%s preserves %s" name w.Workloads.Workload.name)
            true
            (Compile.equivalent_on prog attacked ~inputs))
        Vmattacks.Attacks.all)
    [ Workloads.Caffeine.suite; Workloads.Miniinterp.interpreter ]

let suite = suite @ [ ("attacks on compiled workloads", `Slow, test_attacks_on_compiled_workloads) ]

(* The insertion attacks pinned byte for byte on fixed seeds: one MD5 over
   the per-workload MD5s of every VM workload's attacked program. *)
let test_insertion_known_answer () =
  let hosts = List.map Workloads.Workload.vm_program Vm_corpus.workloads in
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (name, attack, seed, digest) ->
      let all = String.concat "" (List.map (fun h -> md5 (Serialize.encode (attack (Util.Prng.create seed) h))) hosts) in
      Alcotest.(check string) (Printf.sprintf "%s seed %Ld" name seed) digest (md5 all))
    [
      ("nop", Vmattacks.Attacks.nop_insertion ~rate:0.3, 3L, "c35c4df4c71cd39d8abea5d2d2e0cd4d");
      ("nop", Vmattacks.Attacks.nop_insertion ~rate:0.3, 9L, "e3faf02883f9c800530ec4569c0396ee");
      ("branch", Vmattacks.Attacks.branch_insertion ~rate:1.5, 3L, "5dce65d9fbd943234682dee7e114b77e");
      ("branch", Vmattacks.Attacks.branch_insertion ~rate:1.5, 9L, "0cbab6029d4ee3e50fa176bb134138e4");
      ("dead", Vmattacks.Attacks.dead_code_insertion ~count:5, 3L, "023bc7205333b2d88a6b260c06dcb34d");
      ("dead", Vmattacks.Attacks.dead_code_insertion ~count:5, 9L, "607c1f689e27a8a0a123de789c2b9fc7");
      ("split", Vmattacks.Attacks.block_splitting ~count:5, 3L, "05a94368e6403cc0dbfedd00fee1292b");
      ("split", Vmattacks.Attacks.block_splitting ~count:5, 9L, "187aa35b2c35a2e5aa53d7940a9b79b9");
    ]

let suite = suite @ [ ("insertion attacks known answer", `Quick, test_insertion_known_answer) ]
