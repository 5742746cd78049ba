(* Tests for the scheme registry and the generic watermarker interface:
   registration errors, name resolution, the identity between generic and
   direct entry points, and double-watermark composition. *)

open Scheme.Watermarker

let big = Alcotest.testable Bignum.pp Bignum.equal

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let dummy name : (module WATERMARKER) =
  (module struct
    let name = name

    let caps =
      {
        track = Vm;
        max_bits = 0;
        blind = true;
        stealth = "-";
        attack_surface = "-";
        locator_passes = [];
        locatability = 0.;
        resilience_floor = 0.;
      }

    let nbits (s : spec) = s.bits
    let embed _ _ _ = failwith "dummy scheme cannot embed"
    let embed_traced = None
    let recognize ?aux:_ _ _ = failwith "dummy scheme cannot recognize"
    let sink = None
  end)

(* {2 Registry} *)

let test_registration_errors () =
  Scheme.Builtin.ensure ();
  Alcotest.check_raises "duplicate registration rejected"
    (Scheme.Registry.Duplicate "jwm") (fun () ->
      Scheme.Registry.register (dummy "jwm"));
  Alcotest.(check bool) "empty name rejected" true
    (match Scheme.Registry.register (dummy "") with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "'+' in a name rejected" true
    (match Scheme.Registry.register (dummy "a+b") with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_unknown_name () =
  Alcotest.(check bool) "unknown name finds nothing" true
    (Scheme.Builtin.find "zwm" = None);
  Alcotest.check_raises "find_exn raises Unknown" (Scheme.Registry.Unknown "zwm")
    (fun () -> ignore (Scheme.Builtin.find_exn "zwm"));
  Alcotest.(check bool) "composite with unknown part finds nothing" true
    (Scheme.Builtin.find "jwm+zwm" = None);
  Alcotest.(check bool) "mixed-track composite finds nothing" true
    (Scheme.Builtin.find "jwm+nwm" = None)

let test_builtins_registered () =
  let names = Scheme.Builtin.names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [ "jwm"; "nwm"; "gwm" ];
  let check_caps name track blind =
    let (module W) = Scheme.Builtin.find_exn name in
    Alcotest.(check string) (name ^ " name") name W.name;
    Alcotest.(check bool) (name ^ " track") true (W.caps.track = track);
    Alcotest.(check bool) (name ^ " blindness") true (W.caps.blind = blind)
  in
  check_caps "jwm" Vm true;
  check_caps "gwm" Vm true;
  check_caps "nwm" Native false

(* {2 Generic path ≡ direct entry points} *)

(* A small branchy host: gcd driven by the input, so tracing sees real
   branch behaviour without the cost of a full workload. *)
let host_program =
  let gcd =
    Stackvm.Asm.func ~name:"gcd" ~nargs:2 ~nlocals:3
      Stackvm.Asm.[
        L "loop";
        I (Stackvm.Instr.Load 1);
        I (Stackvm.Instr.Const 0);
        I (Stackvm.Instr.Cmp Stackvm.Instr.Eq);
        Br (true, "done");
        I (Stackvm.Instr.Load 0);
        I (Stackvm.Instr.Load 1);
        I (Stackvm.Instr.Binop Stackvm.Instr.Rem);
        I (Stackvm.Instr.Store 2);
        I (Stackvm.Instr.Load 1);
        I (Stackvm.Instr.Store 0);
        I (Stackvm.Instr.Load 2);
        I (Stackvm.Instr.Store 1);
        Jmp "loop";
        L "done";
        I (Stackvm.Instr.Load 0);
        I Stackvm.Instr.Ret;
      ]
  in
  let main =
    Stackvm.Asm.func ~name:"main" ~nargs:0 ~nlocals:2
      Stackvm.Asm.[
        I Stackvm.Instr.Read;
        I (Stackvm.Instr.Store 0);
        I Stackvm.Instr.Read;
        I (Stackvm.Instr.Store 1);
        I (Stackvm.Instr.Load 0);
        I (Stackvm.Instr.Load 1);
        I (Stackvm.Instr.Call "gcd");
        I Stackvm.Instr.Print;
        I (Stackvm.Instr.Const 0);
        I Stackvm.Instr.Ret;
      ]
  in
  Stackvm.Program.make [ gcd; main ]

let key = "identity property key"
let input = [ 36; 84 ]

let program_bytes = function
  | Vm_program p -> Stackvm.Serialize.encode p
  | Native_binary b -> Nativesim.Binary.encode b
  | Native_source a -> Nativesim.Binary.encode (Nativesim.Asm.assemble a)

let jwm_identity =
  qcheck ~count:6 "jwm: generic path is bit-identical to direct entry points"
    QCheck2.Gen.(pair (int_range 16 128) int)
    (fun (bits, seedint) ->
      let w = Bignum.random_bits (Util.Prng.create (Int64.of_int seedint)) bits in
      let direct =
        Jwm.Embed.embed
          {
            Jwm.Embed.passphrase = key;
            watermark = w;
            watermark_bits = bits;
            pieces = default_redundancy;
            input;
          }
          host_program
      in
      let (module W) = Scheme.Builtin.find_exn "jwm" in
      let s = spec ~key ~bits ~input () in
      let generic = W.embed w s (Vm_program host_program) in
      let direct_rec =
        Jwm.Recognize.recognize ~passphrase:key ~watermark_bits:bits ~input
          direct.Jwm.Embed.program
      in
      let generic_rec = W.recognize s generic.carrier in
      String.equal
        (Stackvm.Serialize.encode direct.Jwm.Embed.program)
        (program_bytes generic.carrier)
      && direct_rec.Jwm.Recognize.value = generic_rec.value
      && direct_rec.Jwm.Recognize.value = Some w)

let nwm_identity =
  qcheck ~count:3 "nwm: generic path is bit-identical to direct entry points"
    QCheck2.Gen.(pair (int_range 8 24) int)
    (fun (bits, seedint) ->
      let wl = Workloads.Spec.find "mcf" in
      let asm = Workloads.Workload.native_program wl in
      let training_input = wl.Workloads.Workload.input in
      let w = Bignum.random_bits (Util.Prng.create (Int64.of_int seedint)) bits in
      let direct =
        Nwm.Embed.embed ~seed:default_seed ~watermark:w ~bits ~training_input asm
      in
      let (module W) = Scheme.Builtin.find_exn "nwm" in
      let s = spec ~key ~bits ~input:training_input () in
      let generic = W.embed w s (Native_source asm) in
      let recovered = W.recognize ~aux:generic.aux s generic.carrier in
      String.equal
        (Nativesim.Binary.encode direct.Nwm.Embed.binary)
        (program_bytes generic.carrier)
      && recovered.value = Some w)

(* {2 Double-watermark composition (§5.2.2 as a mode)} *)

let test_compose_double () =
  let wl = Workloads.Caffeine.suite in
  let input = wl.Workloads.Workload.input in
  let w = Bignum.of_string "13907095917686739235" in
  let s = spec ~key ~bits:64 ~redundancy:12 ~input () in
  let (module Both) = Scheme.Builtin.find_exn "jwm+gwm" in
  Alcotest.(check string) "composite name" "jwm+gwm" Both.name;
  let e = Both.embed w s (Vm_program (Workloads.Workload.vm_program wl)) in
  let combined = Both.recognize ~aux:e.aux s e.carrier in
  Alcotest.(check (option big)) "composite recognizes" (Some w) combined.value;
  (* the §5.2.2 point: each mark also recognizes on its own *)
  List.iter
    (fun name ->
      let (module W) = Scheme.Builtin.find_exn name in
      Alcotest.(check (option big))
        (name ^ " recognizes its mark in the doubly-marked program")
        (Some w)
        (W.recognize s e.carrier).value)
    [ "jwm"; "gwm" ];
  (* and the program still behaves *)
  Alcotest.(check bool) "doubly-marked program equivalent" true
    (match e.carrier with
    | Vm_program marked ->
        Stackvm.Compile.equivalent_on (Workloads.Workload.vm_program wl) marked
          ~inputs:(input :: wl.Workloads.Workload.alt_inputs)
    | _ -> false)

(* {2 Scheme names route through the batch engine} *)

let test_batch_by_scheme () =
  let wl = Workloads.Caffeine.suite in
  let program = Workloads.Workload.vm_program wl in
  let input = wl.Workloads.Workload.input in
  let w = Bignum.of_string "987654321987654321" in
  let embed_results =
    Engine.Batch.run
      [
        Engine.Job.vm_embed ~label:"gwm-embed" ~scheme:"gwm" ~key ~bits:64 ~pieces:8 ~fingerprint:w
          ~input program;
      ]
  in
  let marked =
    match (List.hd embed_results).Engine.Batch.outcome with
    | Engine.Batch.Vm_embedded { program = bytes; _ } -> Stackvm.Serialize.decode bytes
    | _ -> Alcotest.fail "gwm embed job failed"
  in
  let recog_results =
    Engine.Batch.run
      [
        Engine.Job.vm_recognize ~label:"gwm-verify" ~scheme:"gwm" ~expected:w ~key ~bits:64 ~input
          marked;
      ]
  in
  Alcotest.(check bool) "gwm recognized through the engine" true
    (Engine.Batch.ok (List.hd recog_results));
  (* an unknown scheme is a typed job failure, not a crash *)
  let bad =
    Engine.Batch.run
      [
        Engine.Job.vm_embed ~label:"bad" ~scheme:"zwm" ~key ~bits:64 ~pieces:8 ~fingerprint:w ~input
          program;
      ]
  in
  Alcotest.(check bool) "unknown scheme job fails" false (Engine.Batch.ok (List.hd bad))

let test_compose_seeds () =
  Alcotest.(check bool) "component 0 embeds under the spec seed" true
    (Scheme.Compose.seed_for 42L 0 = 42L);
  Alcotest.(check bool) "later components get distinct seeds" true
    (Scheme.Compose.seed_for 42L 1 <> Scheme.Compose.seed_for 42L 2)

let suite =
  [
    Alcotest.test_case "registration errors" `Quick test_registration_errors;
    Alcotest.test_case "unknown names" `Quick test_unknown_name;
    Alcotest.test_case "builtins registered" `Quick test_builtins_registered;
    jwm_identity;
    nwm_identity;
    Alcotest.test_case "double watermark composition" `Slow test_compose_double;
    Alcotest.test_case "batch jobs route by scheme name" `Slow test_batch_by_scheme;
    Alcotest.test_case "composition seeds" `Quick test_compose_seeds;
  ]
