(* Tests for the Feistel block cipher. *)

let test_roundtrip_default () =
  let c = Crypto.Feistel.create ~key:0xDEADBEEFL () in
  List.iter
    (fun v -> Alcotest.(check int) "decrypt . encrypt = id" v (Crypto.Feistel.decrypt c (Crypto.Feistel.encrypt c v)))
    [ 0; 1; 42; (1 lsl 61) - 1; 1 lsl 60; 123456789123456789 ]

let test_roundtrip_small_block () =
  let c = Crypto.Feistel.create ~block_bits:16 ~key:7L () in
  for v = 0 to 65535 do
    if Crypto.Feistel.decrypt c (Crypto.Feistel.encrypt c v) <> v then
      Alcotest.failf "roundtrip failed at %d" v
  done

let test_bijective_small_block () =
  let c = Crypto.Feistel.create ~block_bits:12 ~key:99L () in
  let seen = Array.make 4096 false in
  for v = 0 to 4095 do
    let e = Crypto.Feistel.encrypt c v in
    Alcotest.(check bool) "in range" true (e >= 0 && e < 4096);
    if seen.(e) then Alcotest.failf "collision at %d" v;
    seen.(e) <- true
  done

let test_key_sensitivity () =
  let c1 = Crypto.Feistel.create ~key:1L () and c2 = Crypto.Feistel.create ~key:2L () in
  let differs = ref 0 in
  for v = 0 to 99 do
    if Crypto.Feistel.encrypt c1 v <> Crypto.Feistel.encrypt c2 v then incr differs
  done;
  Alcotest.(check bool) "different keys give different ciphertexts" true (!differs > 90)

let test_diffusion () =
  (* Flipping one plaintext bit should flip many ciphertext bits on average. *)
  let c = Crypto.Feistel.create ~key:123L () in
  let total = ref 0 in
  let samples = 200 in
  let rng = Util.Prng.create 17L in
  for _ = 1 to samples do
    let v = Util.Prng.bits rng 62 in
    let bit = Util.Prng.int rng 62 in
    let d = Crypto.Feistel.encrypt c v lxor Crypto.Feistel.encrypt c (v lxor (1 lsl bit)) in
    let rec popcount x = if x = 0 then 0 else (x land 1) + popcount (x lsr 1) in
    total := !total + popcount d
  done;
  let avg = float_of_int !total /. float_of_int samples in
  Alcotest.(check bool) (Printf.sprintf "avalanche avg %.1f bits" avg) true (avg > 20.0 && avg < 42.0)

let test_passphrase_deterministic () =
  let c1 = Crypto.Feistel.of_passphrase "secret input" in
  let c2 = Crypto.Feistel.of_passphrase "secret input" in
  let c3 = Crypto.Feistel.of_passphrase "secret inpux" in
  Alcotest.(check int) "same passphrase" (Crypto.Feistel.encrypt c1 5) (Crypto.Feistel.encrypt c2 5);
  Alcotest.(check bool) "different passphrase" true
    (Crypto.Feistel.encrypt c1 5 <> Crypto.Feistel.encrypt c3 5)

let test_invalid_params () =
  let expect_invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "odd block" true (expect_invalid (fun () -> Crypto.Feistel.create ~block_bits:13 ~key:1L ()));
  Alcotest.(check bool) "too wide" true (expect_invalid (fun () -> Crypto.Feistel.create ~block_bits:64 ~key:1L ()));
  let c = Crypto.Feistel.create ~block_bits:16 ~key:1L () in
  Alcotest.(check bool) "value out of range" true (expect_invalid (fun () -> Crypto.Feistel.encrypt c 65536));
  Alcotest.(check bool) "negative value" true (expect_invalid (fun () -> Crypto.Feistel.encrypt c (-1)))

(* Ciphertexts and plaintexts pinned from the original round function:
   any change to the key schedule or the rounds changes embedded programs
   and breaks recognition of every mark already shipped. *)
let known_answers =
  [
    ( 62,
      "kat passphrase",
      [
        (0, 3687546659079436123, 3871773075831621090);
        (1, 3561033644111764524, 3847865639371917604);
        (42, 2817368609639745931, 1228477493628152759);
        (2685821657736338717, 2569166366252789979, 3007721168270734804);
        (4611686018427387903, 955028844463959409, 489270531732609377);
        (123456789123456789, 3584512056216404835, 1345870512197160554);
      ] );
    ( 62,
      "pathmark-default-key|piece-cipher",
      [
        (0, 4327376505051208535, 2088119637667742862);
        (1, 384752088806381227, 1638976604559572659);
        (42, 3125639366885323764, 1820086852884781224);
        (2685821657736338717, 3298879104815902607, 3090920501880776312);
        (4611686018427387903, 828572654133774426, 3501718529536646879);
        (123456789123456789, 2388161915474115999, 3874070178823187342);
      ] );
    ( 16,
      "kat passphrase",
      [
        (0, 31148, 18189);
        (1, 2362, 14021);
        (42, 57762, 33790);
        (48879, 52431, 56771);
        (65535, 10131, 57095);
        (12345, 898, 46446);
      ] );
  ]

let test_known_answers () =
  List.iter
    (fun (block_bits, passphrase, rows) ->
      let c = Crypto.Feistel.of_passphrase ~block_bits passphrase in
      List.iter
        (fun (v, enc, dec) ->
          let name what = Printf.sprintf "%s %d-bit %S of %d" what block_bits passphrase v in
          Alcotest.(check int) (name "encrypt") enc (Crypto.Feistel.encrypt c v);
          Alcotest.(check int) (name "decrypt") dec (Crypto.Feistel.decrypt c v);
          Alcotest.(check int) (name "decrypt_unchecked") dec (Crypto.Feistel.decrypt_unchecked c v))
        rows)
    known_answers

let qcheck_roundtrip =
  QCheck.Test.make ~name:"encrypt/decrypt roundtrip on random values" ~count:1000
    QCheck.(pair (int_bound ((1 lsl 30) - 1)) (int_bound ((1 lsl 30) - 1)))
    (fun (hi, lo) ->
      let v = (hi lsl 30) lor lo in
      let c = Crypto.Feistel.create ~key:0x5EEDL () in
      Crypto.Feistel.decrypt c (Crypto.Feistel.encrypt c v) = v)

(* The eight-wide batch decrypt against one block at a time: random keys,
   every even width, odd and even round counts, and every length up to 17,
   which leaves each tail size after one and two groups of eight, plus one
   harvest-sized batch.
   Blocks are drawn over the whole width, so values near 2^width - 1 and
   0 both occur; [dst] starts as garbage and [src] must stay untouched. *)
let qcheck_decrypt_many =
  let gen =
    QCheck.Gen.(
      map4
        (fun key half rounds (n, seed) -> (Int64.of_int key, 2 * half, rounds, n, seed))
        (int_bound max_int) (int_range 2 31) (int_range 2 40)
        (pair (oneof [ int_range 0 17; pure 1024 ]) (int_bound 100_000)))
  in
  let print (key, width, rounds, n, seed) =
    Printf.sprintf "key=%Ld width=%d rounds=%d n=%d seed=%d" key width rounds n seed
  in
  QCheck.Test.make ~name:"decrypt_many matches decrypt_unchecked" ~count:500 (QCheck.make ~print gen)
    (fun (key, block_bits, rounds, n, seed) ->
      let c = Crypto.Feistel.create ~rounds ~block_bits ~key () in
      let rng = Util.Prng.create (Int64.of_int seed) in
      let src = Array.init (n + 3) (fun _ -> Util.Prng.bits rng block_bits) in
      let before = Array.copy src in
      let dst = Array.make (n + 3) (-7) in
      Crypto.Feistel.decrypt_many c src dst n;
      let expected = Array.init n (fun i -> Crypto.Feistel.decrypt_unchecked c src.(i)) in
      src = before
      && Array.sub dst 0 n = expected
      && Array.for_all (( = ) (-7)) (Array.sub dst n 3)
      || QCheck.Test.fail_reportf "got [%s]"
           (String.concat "; " (Array.to_list (Array.map string_of_int dst))))

let test_decrypt_many_in_place () =
  let c = Crypto.Feistel.create ~key:0xC0FFEEL () in
  let blocks = Array.init 11 (fun i -> (i * 0x1234567) land ((1 lsl 62) - 1)) in
  let expected = Array.map (Crypto.Feistel.decrypt_unchecked c) blocks in
  Crypto.Feistel.decrypt_many c blocks blocks 11;
  Alcotest.(check (array int)) "src and dst may alias" expected blocks;
  (* two groups of eight and a tail of three, in place *)
  let blocks = Array.init 19 (fun i -> ((i + 1) * 0x2545F4914F6CDD1D) land ((1 lsl 62) - 1)) in
  let expected = Array.map (Crypto.Feistel.decrypt_unchecked c) blocks in
  Crypto.Feistel.decrypt_many c blocks blocks 19;
  Alcotest.(check (array int)) "src and dst may alias at 19" expected blocks;
  let bad n () =
    try
      Crypto.Feistel.decrypt_many c blocks (Array.make 4 0) n;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative length" true (bad (-1) ());
  Alcotest.(check bool) "longer than dst" true (bad 5 ());
  Alcotest.(check bool) "longer than src" true (bad 12 ())

let suite =
  [
    ("roundtrip default block", `Quick, test_roundtrip_default);
    ("roundtrip 16-bit block exhaustive", `Quick, test_roundtrip_small_block);
    ("bijective on 12-bit block", `Quick, test_bijective_small_block);
    ("key sensitivity", `Quick, test_key_sensitivity);
    ("diffusion/avalanche", `Quick, test_diffusion);
    ("passphrase derivation", `Quick, test_passphrase_deterministic);
    ("invalid parameters", `Quick, test_invalid_params);
    ("known answers at 62 and 16 bits", `Quick, test_known_answers);
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_decrypt_many;
    ("decrypt_many in place and bounds", `Quick, test_decrypt_many_in_place);
  ]
