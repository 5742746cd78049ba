(* Tests for the util library: PRNG determinism and bit-string behaviour. *)

open Util

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_split_independent () =
  let a = Prng.create 7L in
  let c = Prng.split a in
  let x = Prng.next_int64 a and y = Prng.next_int64 c in
  Alcotest.(check bool) "split streams differ" true (x <> y)

let test_prng_int_bounds () =
  let rng = Prng.create 1L in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_in () =
  let rng = Prng.create 2L in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let test_prng_weighted () =
  let rng = Prng.create 3L in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let i = Prng.weighted_index rng [| 0.0; 1.0; 9.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight index never drawn" 0 counts.(0);
  Alcotest.(check bool) "heavy index dominates" true (counts.(2) > counts.(1))

let test_prng_shuffle_permutes () =
  let rng = Prng.create 4L in
  let a = Array.init 20 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 (fun i -> i)) sorted

let test_bits_roundtrip () =
  let s = "011010011101" in
  Alcotest.(check string) "roundtrip" s (Bitstring.to_string (Bitstring.of_string s))

let test_bits_append_int () =
  let t = Bitstring.create () in
  Bitstring.append_int t ~value:0b1011 ~width:4;
  (* least significant bit first: 1,1,0,1 *)
  Alcotest.(check string) "lsb first" "1101" (Bitstring.to_string t)

let test_bits_window () =
  let t = Bitstring.of_string "10110100" in
  (match Bitstring.window t ~pos:0 ~stride:1 ~width:4 with
  | Some v -> Alcotest.(check int) "stride 1" 0b1101 v
  | None -> Alcotest.fail "window failed");
  (match Bitstring.window t ~pos:0 ~stride:2 ~width:4 with
  | Some v ->
      (* bits at positions 0,2,4,6 = 1,1,0,0 -> value 0b0011 *)
      Alcotest.(check int) "stride 2" 0b0011 v
  | None -> Alcotest.fail "window failed");
  Alcotest.(check (option int)) "past end" None (Bitstring.window t ~pos:6 ~stride:1 ~width:4)

let test_bits_substring () =
  let haystack = Bitstring.of_string "0011010110" in
  Alcotest.(check bool) "present" true
    (Bitstring.is_substring ~needle:(Bitstring.of_string "1101") ~haystack);
  Alcotest.(check bool) "absent" false
    (Bitstring.is_substring ~needle:(Bitstring.of_string "11111") ~haystack)

let test_bits_sub_concat () =
  let t = Bitstring.of_string "110010" in
  let left = Bitstring.sub t ~pos:0 ~len:3 and right = Bitstring.sub t ~pos:3 ~len:3 in
  Alcotest.(check bool) "concat restores" true (Bitstring.equal t (Bitstring.concat left right))

let test_bits_find_int () =
  let t = Bitstring.of_string "000101100000" in
  (* value 0b1101 read lsb-first is bits 1,0,1,1 at position 3 *)
  match Bitstring.find_int t ~width:4 ~value:0b1101 ~stride:1 with
  | Some p -> Alcotest.(check int) "found position" 3 p
  | None -> Alcotest.fail "expected to find pattern"

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "spec drops extremes" 3.0 (Stats.spec_average [ 100.0; 3.0; 3.0; 3.0; 0.0 ]);
  Alcotest.(check (float 1e-9)) "percent" 50.0 (Stats.percent ~before:2.0 ~after:3.0)

let qcheck_window_consistent =
  QCheck.Test.make ~name:"window stride-1 equals packed sub" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 8 80) bool) small_nat)
    (fun (bits, pos0) ->
      let t = Util.Bitstring.of_bool_list bits in
      let width = 6 in
      let pos = pos0 mod max 1 (List.length bits) in
      match Util.Bitstring.window t ~pos ~stride:1 ~width with
      | None -> pos + width > List.length bits
      | Some v ->
          let expected = ref 0 in
          List.iteri (fun i b -> if i >= pos && i < pos + width && b then expected := !expected lor (1 lsl (i - pos))) bits;
          v = !expected)

let suite =
  [
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng split independent", `Quick, test_prng_split_independent);
    ("prng int bounds", `Quick, test_prng_int_bounds);
    ("prng int_in bounds", `Quick, test_prng_int_in);
    ("prng weighted index", `Quick, test_prng_weighted);
    ("prng shuffle permutes", `Quick, test_prng_shuffle_permutes);
    ("bitstring roundtrip", `Quick, test_bits_roundtrip);
    ("bitstring append_int", `Quick, test_bits_append_int);
    ("bitstring window", `Quick, test_bits_window);
    ("bitstring substring", `Quick, test_bits_substring);
    ("bitstring sub/concat", `Quick, test_bits_sub_concat);
    ("bitstring find_int", `Quick, test_bits_find_int);
    ("stats helpers", `Quick, test_stats);
    QCheck_alcotest.to_alcotest qcheck_window_consistent;
  ]

(* ---- additional stats and bitstring edges ---- *)

let test_stats_more () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "stddev constant" 0.0 (Stats.stddev [ 3.0; 3.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Stats.mean [])

let test_bits_empty () =
  let t = Bitstring.create () in
  Alcotest.(check int) "empty length" 0 (Bitstring.length t);
  Alcotest.(check string) "empty string" "" (Bitstring.to_string t);
  Alcotest.(check bool) "empty substring of empty" true
    (Bitstring.is_substring ~needle:(Bitstring.create ()) ~haystack:t);
  Alcotest.(check (option int)) "window on empty" None (Bitstring.window t ~pos:0 ~stride:1 ~width:4)

let test_bits_get_bounds () =
  let t = Bitstring.of_string "101" in
  (match Bitstring.get t 3 with
  | _ -> Alcotest.fail "expected out of range"
  | exception Invalid_argument _ -> ());
  match Bitstring.get t (-1) with
  | _ -> Alcotest.fail "expected out of range"
  | exception Invalid_argument _ -> ()

let test_bits_large_growth () =
  let t = Bitstring.create () in
  for i = 0 to 99_999 do
    Bitstring.append t (i mod 3 = 0)
  done;
  Alcotest.(check int) "length" 100_000 (Bitstring.length t);
  Alcotest.(check bool) "spot check" true (Bitstring.get t 99_999 = (99_999 mod 3 = 0))

let test_json_escape () =
  Alcotest.(check string) "short escapes" {|q\"b\\n\nr\rt\t|} (Json.escape "q\"b\\n\nr\rt\t");
  Alcotest.(check string) "other control characters" {|\u0000\u001f|} (Json.escape "\000\031");
  Alcotest.(check string) "quoted" {|"a\"b"|} (Json.str "a\"b")

let more_suite =
  [
    ("stats more", `Quick, test_stats_more);
    ("bitstring empty", `Quick, test_bits_empty);
    ("bitstring get bounds", `Quick, test_bits_get_bounds);
    ("bitstring large growth", `Quick, test_bits_large_growth);
    ("json string escaping", `Quick, test_json_escape);
  ]

let suite = suite @ more_suite
