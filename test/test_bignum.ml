(* Tests for the arbitrary-precision integer substrate. *)

let big = Alcotest.testable Bignum.pp Bignum.equal

let b = Bignum.of_string

let test_small_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check int) "int roundtrip" n (Bignum.to_int (Bignum.of_int n)))
    [ 0; 1; -1; 42; -42; max_int / 2; min_int / 2; 1 lsl 55 ]

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) "string roundtrip" s (Bignum.to_string (b s)))
    [ "0"; "1"; "-1"; "123456789012345678901234567890"; "-987654321987654321987654321" ]

let test_add_sub () =
  let x = b "123456789012345678901234567890" in
  let y = b "999999999999999999999999999999" in
  Alcotest.check big "x + y - y = x" x (Bignum.sub (Bignum.add x y) y);
  Alcotest.check big "x - x = 0" Bignum.zero (Bignum.sub x x);
  Alcotest.check big "commutative" (Bignum.add x y) (Bignum.add y x)

let test_mul () =
  let x = b "123456789" and y = b "987654321" in
  Alcotest.check big "known product" (b "121932631112635269") (Bignum.mul x y);
  Alcotest.check big "sign" (b "-121932631112635269") (Bignum.mul (Bignum.neg x) y)

let test_divmod_identity () =
  let a = b "123456789012345678901234567890123" in
  let d = b "98765432109876" in
  let q, r = Bignum.divmod a d in
  Alcotest.check big "a = q*d + r" a (Bignum.add (Bignum.mul q d) r);
  Alcotest.(check bool) "|r| < |d|" true (Bignum.compare (Bignum.abs r) (Bignum.abs d) < 0)

let test_divmod_signs () =
  (* Truncated division: remainder takes the dividend's sign. *)
  let check (a, d, q, r) =
    let qa, ra = Bignum.divmod (Bignum.of_int a) (Bignum.of_int d) in
    Alcotest.(check int) "q" q (Bignum.to_int qa);
    Alcotest.(check int) "r" r (Bignum.to_int ra)
  in
  List.iter check [ (7, 2, 3, 1); (-7, 2, -3, -1); (7, -2, -3, 1); (-7, -2, 3, -1) ]

let test_erem_nonneg () =
  let r = Bignum.erem (Bignum.of_int (-7)) (Bignum.of_int 3) in
  Alcotest.(check int) "euclidean" 2 (Bignum.to_int r)

let test_gcd_lcm () =
  let x = Bignum.of_int (12 * 35) and y = Bignum.of_int (18 * 35) in
  Alcotest.(check int) "gcd" 210 (Bignum.to_int (Bignum.gcd x y));
  Alcotest.(check int) "lcm" 360 (Bignum.to_int (Bignum.lcm (Bignum.of_int 72) (Bignum.of_int 120)))

let test_egcd_bezout () =
  let a = b "1234567890123456789" and bb = b "987654321098765432" in
  let g, s, t = Bignum.egcd a bb in
  let lhs = Bignum.add (Bignum.mul s a) (Bignum.mul t bb) in
  Alcotest.check big "bezout" g lhs;
  Alcotest.check big "divides a" Bignum.zero (Bignum.rem a g);
  Alcotest.check big "divides b" Bignum.zero (Bignum.rem bb g)

let test_pow () =
  Alcotest.check big "2^100" (b "1267650600228229401496703205376") (Bignum.pow Bignum.two 100);
  Alcotest.check big "x^0" Bignum.one (Bignum.pow (b "999") 0)

let test_shifts () =
  let x = b "123456789123456789" in
  Alcotest.check big "shift roundtrip" x (Bignum.shift_right (Bignum.shift_left x 67) 67);
  Alcotest.check big "shift_left is *2^k" (Bignum.mul x (Bignum.pow Bignum.two 13)) (Bignum.shift_left x 13)

let test_bits_roundtrip () =
  let x = b "987654321234567898765432123456789" in
  let width = Bignum.num_bits x in
  Alcotest.check big "of_bits . to_bits" x (Bignum.of_bits (Bignum.to_bits x ~width))

let test_num_bits () =
  Alcotest.(check int) "zero" 0 (Bignum.num_bits Bignum.zero);
  Alcotest.(check int) "one" 1 (Bignum.num_bits Bignum.one);
  Alcotest.(check int) "256" 9 (Bignum.num_bits (Bignum.of_int 256));
  Alcotest.(check int) "2^100" 101 (Bignum.num_bits (Bignum.pow Bignum.two 100))

let test_random_bits_range () =
  let rng = Util.Prng.create 11L in
  for _ = 1 to 50 do
    let x = Bignum.random_bits rng 768 in
    Alcotest.(check bool) "below 2^768" true (Bignum.compare x (Bignum.pow Bignum.two 768) < 0);
    Alcotest.(check bool) "nonnegative" true (Bignum.sign x >= 0)
  done

let arb_pair_of_ints = QCheck.(pair (int_bound (1 lsl 30)) (int_range 1 (1 lsl 30)))

let qcheck_divmod_matches_int =
  QCheck.Test.make ~name:"divmod agrees with int division" ~count:500 arb_pair_of_ints
    (fun (a, d) ->
      let q, r = Bignum.divmod (Bignum.of_int a) (Bignum.of_int d) in
      Bignum.to_int q = a / d && Bignum.to_int r = a mod d)

let qcheck_mul_matches_int =
  QCheck.Test.make ~name:"mul agrees with int multiplication" ~count:500
    QCheck.(pair (int_bound 0xFFFFFFF) (int_bound 0xFFFFFFF))
    (fun (a, c) -> Bignum.to_int (Bignum.mul (Bignum.of_int a) (Bignum.of_int c)) = a * c)

let qcheck_add_assoc =
  QCheck.Test.make ~name:"addition associative on random bignums" ~count:200
    QCheck.(triple small_nat small_nat small_nat)
    (fun (i, j, k) ->
      let rng = Util.Prng.create (Int64.of_int ((i * 1000003) + (j * 13) + k)) in
      let x = Bignum.random_bits rng 200
      and y = Bignum.random_bits rng 150
      and z = Bignum.random_bits rng 300 in
      Bignum.equal (Bignum.add x (Bignum.add y z)) (Bignum.add (Bignum.add x y) z))

let qcheck_divmod_identity_big =
  QCheck.Test.make ~name:"a = q*d + r on random bignums" ~count:200 (QCheck.int_bound 1_000_000) (fun i ->
      let rng = Util.Prng.create (Int64.of_int (i + 77)) in
      let a = Bignum.random_bits rng 400 in
      let d = Bignum.add Bignum.one (Bignum.random_bits rng 130) in
      let q, r = Bignum.divmod a d in
      Bignum.equal a (Bignum.add (Bignum.mul q d) r)
      && Bignum.compare r d < 0
      && Bignum.sign r >= 0)

let suite =
  [
    ("int roundtrip", `Quick, test_small_roundtrip);
    ("string roundtrip", `Quick, test_string_roundtrip);
    ("add/sub", `Quick, test_add_sub);
    ("mul", `Quick, test_mul);
    ("divmod identity", `Quick, test_divmod_identity);
    ("divmod signs", `Quick, test_divmod_signs);
    ("erem nonnegative", `Quick, test_erem_nonneg);
    ("gcd/lcm", `Quick, test_gcd_lcm);
    ("egcd bezout", `Quick, test_egcd_bezout);
    ("pow", `Quick, test_pow);
    ("shifts", `Quick, test_shifts);
    ("bits roundtrip", `Quick, test_bits_roundtrip);
    ("num_bits", `Quick, test_num_bits);
    ("random_bits range", `Quick, test_random_bits_range);
    QCheck_alcotest.to_alcotest qcheck_divmod_matches_int;
    QCheck_alcotest.to_alcotest qcheck_mul_matches_int;
    QCheck_alcotest.to_alcotest qcheck_add_assoc;
    QCheck_alcotest.to_alcotest qcheck_divmod_identity_big;
  ]

(* ---- additional edge cases ---- *)

let test_to_int_overflow () =
  let big_val = Bignum.pow Bignum.two 100 in
  Alcotest.(check bool) "to_int_opt None" true (Bignum.to_int_opt big_val = None);
  (match Bignum.to_int big_val with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  Alcotest.(check bool) "62-bit fits" true (Bignum.to_int_opt (Bignum.pow Bignum.two 61) <> None)

let test_of_string_errors () =
  List.iter
    (fun s ->
      match Bignum.of_string s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Invalid_argument _ -> ())
    [ ""; "-"; "12a3"; "--5"; " 5" ]

let test_division_by_zero () =
  match Bignum.divmod Bignum.one Bignum.zero with
  | _ -> Alcotest.fail "expected Division_by_zero"
  | exception Division_by_zero -> ()

let test_compare_total_order () =
  let vals = List.map Bignum.of_int [ -100; -1; 0; 1; 7; 100 ] in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          let c = Bignum.compare a b in
          Alcotest.(check bool) "order agrees with int order" true
            ((c < 0) = (i < j) && (c = 0) = (i = j)))
        vals)
    vals

let test_shift_right_to_zero () =
  Alcotest.(check bool) "shifted out" true (Bignum.is_zero (Bignum.shift_right (Bignum.of_int 255) 10))

let test_pow_negative_exponent () =
  match Bignum.pow Bignum.two (-1) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let edge_suite =
  [
    ("to_int overflow", `Quick, test_to_int_overflow);
    ("of_string errors", `Quick, test_of_string_errors);
    ("division by zero", `Quick, test_division_by_zero);
    ("compare total order", `Quick, test_compare_total_order);
    ("shift right to zero", `Quick, test_shift_right_to_zero);
    ("pow negative exponent", `Quick, test_pow_negative_exponent);
  ]

let suite = suite @ edge_suite
