(* Tests for the watermark piece codec: parameters, enumeration, encryption,
   recombination (Section 3.2-3.3 of the paper). *)

open Codec

let big = Alcotest.testable Bignum.pp Bignum.equal

let params_small = Params.make ~prime_bits:12 ~passphrase:"test-key" ~watermark_bits:64 ()
let params_768 = Params.make ~passphrase:"fig5-key" ~watermark_bits:768 ()

let watermark_of params seed bits =
  let rng = Util.Prng.create seed in
  let rec draw () =
    let w = Bignum.random_bits rng bits in
    if Params.fits params w then w else draw ()
  in
  draw ()

let test_params_deterministic () =
  let p1 = Params.make ~passphrase:"k" ~watermark_bits:128 () in
  let p2 = Params.make ~passphrase:"k" ~watermark_bits:128 () in
  Alcotest.(check (array int)) "same primes" p1.Params.primes p2.Params.primes

let test_params_capacity () =
  Alcotest.(check bool) "768-bit watermark fits" true (Params.max_watermark_bits params_768 >= 768);
  Alcotest.(check bool) "within capacity" true
    (Params.fits params_768 (Bignum.sub (Bignum.pow Bignum.two 768) Bignum.one));
  Alcotest.(check bool) "capacity excluded" false (Params.fits params_768 (Params.capacity params_768))

let test_params_primes_distinct () =
  let ps = params_768.Params.primes in
  let sorted = List.sort_uniq compare (Array.to_list ps) in
  Alcotest.(check int) "distinct" (Array.length ps) (List.length sorted);
  Array.iter (fun p -> Alcotest.(check bool) "prime" true (Numtheory.Ints.is_prime p)) ps

let test_statements_of_watermark () =
  let w = Bignum.of_int 123456789 in
  let stmts = Statement.all_of_watermark params_small w in
  Alcotest.(check int) "count = C(r,2)" (Params.pair_count params_small) (List.length stmts);
  List.iter
    (fun (s : Statement.t) ->
      let m = Statement.modulus params_small s in
      Alcotest.(check int) "residue matches watermark"
        (Bignum.to_int (Bignum.erem w (Bignum.of_int m)))
        s.Statement.x)
    stmts

let test_enumeration_roundtrip () =
  let w = watermark_of params_small 3L 60 in
  List.iter
    (fun s ->
      match Statement.unenumerate params_small (Statement.enumerate params_small s) with
      | None -> Alcotest.fail "unenumerate failed on valid statement"
      | Some s' -> Alcotest.(check bool) "roundtrip" true (Statement.equal s s'))
    (Statement.all_of_watermark params_small w)

let test_enumeration_injective () =
  (* Consecutive statements from different pairs must map to distinct codes. *)
  let w = watermark_of params_small 4L 60 in
  let codes = List.map (Statement.enumerate params_small) (Statement.all_of_watermark params_small w) in
  let sorted = List.sort_uniq compare codes in
  Alcotest.(check int) "injective" (List.length codes) (List.length sorted)

let test_unenumerate_garbage () =
  let total =
    Array.to_list params_small.Params.primes
    |> List.mapi (fun i p -> (i, p))
    |> List.concat_map (fun (i, p) ->
           Array.to_list params_small.Params.primes
           |> List.mapi (fun j q -> if j > i then p * q else 0))
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check bool) "beyond range rejected" true (Statement.unenumerate params_small total = None);
  Alcotest.(check bool) "negative rejected" true (Statement.unenumerate params_small (-1) = None)

let test_encode_decode () =
  let w = watermark_of params_small 5L 60 in
  List.iter
    (fun s ->
      match Statement.decode params_small (Statement.encode params_small s) with
      | None -> Alcotest.fail "decode failed"
      | Some s' -> Alcotest.(check bool) "roundtrip through cipher" true (Statement.equal s s'))
    (Statement.all_of_watermark params_small w)

let test_statement_bits_width () =
  let w = watermark_of params_small 6L 60 in
  let s = List.hd (Statement.all_of_watermark params_small w) in
  Alcotest.(check int) "block width" params_small.Params.block_bits (List.length (Statement.bits params_small s))

let test_consistency_predicate () =
  let w = watermark_of params_small 7L 60 in
  let stmts = Array.of_list (Statement.all_of_watermark params_small w) in
  (* true statements are pairwise consistent *)
  Array.iteri
    (fun a sa ->
      Array.iteri
        (fun b sb -> if a < b then Alcotest.(check bool) "true stmts consistent" true (Statement.consistent params_small sa sb))
        stmts)
    stmts;
  (* corrupting a residue on a shared prime breaks consistency with some other *)
  let s0 = stmts.(0) in
  let bad = { s0 with Statement.x = (s0.Statement.x + 1) mod Statement.modulus params_small s0 } in
  let inconsistent_with_some = Array.exists (fun s -> not (Statement.consistent params_small bad s)) stmts in
  Alcotest.(check bool) "corrupted stmt conflicts" true inconsistent_with_some

let test_pieces_cover () =
  let w = watermark_of params_small 8L 60 in
  let rng = Util.Prng.create 1L in
  let count = Pieces.min_full_cover params_small in
  let pieces = Pieces.select params_small ~rng ~watermark:w ~count in
  Alcotest.(check int) "count honoured" count (List.length pieces);
  let distinct = List.sort_uniq Statement.compare pieces in
  Alcotest.(check int) "one full round covers all pairs" count (List.length distinct)

let test_recover_all_pieces () =
  let w = watermark_of params_small 9L 60 in
  let stmts = Statement.all_of_watermark params_small w in
  match Recombine.recover_value params_small stmts with
  | None -> Alcotest.fail "recovery with all pieces must succeed"
  | Some w' -> Alcotest.check big "recovered watermark" w w'

let test_recover_spanning_subset () =
  (* A spanning subset of edges (a Hamiltonian-ish path over prime indices)
     is enough to pin the watermark. *)
  let w = watermark_of params_small 10L 60 in
  let r = Params.r params_small in
  let path = List.init (r - 1) (fun i -> Statement.of_watermark params_small w ~pair:(i, i + 1)) in
  match Recombine.recover_value params_small path with
  | None -> Alcotest.fail "spanning path must suffice"
  | Some w' -> Alcotest.check big "recovered" w w'

let test_recover_fails_without_coverage () =
  let w = watermark_of params_small 11L 60 in
  (* Omit every statement touching prime 0: recovery must refuse. *)
  let stmts =
    List.filter (fun (s : Statement.t) -> s.Statement.i <> 0 && s.Statement.j <> 0)
      (Statement.all_of_watermark params_small w)
  in
  Alcotest.(check bool) "uncovered prime detected" true (Recombine.recover_value params_small stmts = None)

let test_recover_with_garbage () =
  (* True pieces (duplicated) plus uniformly random garbage statements:
     the vote + graph phases must reject the garbage. *)
  let w = watermark_of params_small 12L 60 in
  let rng = Util.Prng.create 13L in
  let true_pieces =
    List.concat_map (fun s -> [ s; s; s ]) (Statement.all_of_watermark params_small w)
  in
  let garbage =
    List.init 200 (fun _ ->
        let r = Params.r params_small in
        let i = Util.Prng.int rng (r - 1) in
        let j = Util.Prng.int_in rng (i + 1) (r - 1) in
        let m = params_small.Params.primes.(i) * params_small.Params.primes.(j) in
        { Statement.i; j; x = Util.Prng.int rng m })
  in
  match Recombine.recover_value params_small (true_pieces @ garbage) with
  | None -> Alcotest.fail "recovery must survive garbage"
  | Some w' -> Alcotest.check big "recovered despite garbage" w w'

let test_recover_from_bitstring_contiguous () =
  (* Serialize a few encoded pieces into a bit-string with random filler
     between them; recover_from_bitstring must find the watermark. *)
  let w = watermark_of params_small 14L 60 in
  let rng = Util.Prng.create 15L in
  let bits = Util.Bitstring.create () in
  let add_filler n = for _ = 1 to n do Util.Bitstring.append bits (Util.Prng.bool rng) done in
  add_filler 40;
  List.iter
    (fun s ->
      List.iter (Util.Bitstring.append bits) (Statement.bits params_small s);
      add_filler (Util.Prng.int_in rng 5 30))
    (Statement.all_of_watermark params_small w);
  let report = Recombine.recover_from_bitstring params_small bits in
  (match report.Recombine.value with
  | None -> Alcotest.fail "bitstring recovery failed"
  | Some w' -> Alcotest.check big "recovered from bitstring" w w');
  Alcotest.(check bool) "coverage reported" true report.Recombine.covered

let test_recover_from_bitstring_stride2 () =
  (* Pieces whose payload bits interleave with a constant loop-control bit
     (the loop code generator of §3.2.1) are found at stride 2. *)
  let w = watermark_of params_small 16L 60 in
  let rng = Util.Prng.create 17L in
  let bits = Util.Bitstring.create () in
  let add_filler n = for _ = 1 to n do Util.Bitstring.append bits (Util.Prng.bool rng) done in
  add_filler 30;
  List.iter
    (fun s ->
      List.iter
        (fun payload ->
          Util.Bitstring.append bits false (* loop-control branch bit *);
          Util.Bitstring.append bits payload)
        (Statement.bits params_small s);
      add_filler (Util.Prng.int_in rng 5 25))
    (Statement.all_of_watermark params_small w);
  match (Recombine.recover_from_bitstring params_small bits).Recombine.value with
  | None -> Alcotest.fail "stride-2 recovery failed"
  | Some w' -> Alcotest.check big "recovered interleaved pieces" w w'

let test_recover_768_bit () =
  (* The Figure 5 configuration: a 768-bit watermark over 32 primes. *)
  let w = watermark_of params_768 18L 768 in
  let stmts = Statement.all_of_watermark params_768 w in
  Alcotest.(check bool) "hundreds of pieces" true (List.length stmts >= 400);
  match Recombine.recover_value params_768 stmts with
  | None -> Alcotest.fail "768-bit recovery failed"
  | Some w' -> Alcotest.check big "recovered 768-bit watermark" w w'

let test_recover_768_after_deletion () =
  (* Delete 70% of the pieces at random; with ~496 pieces the survivors
     almost surely still cover all 32 primes. *)
  let w = watermark_of params_768 19L 768 in
  let rng = Util.Prng.create 20L in
  let survivors =
    List.filter (fun _ -> Util.Prng.float rng 1.0 > 0.7) (Statement.all_of_watermark params_768 w)
  in
  match Recombine.recover_value params_768 survivors with
  | None -> Alcotest.fail "recovery after 70% deletion failed (unlucky coverage?)"
  | Some w' -> Alcotest.check big "recovered after deletion" w w'

let test_recover_with_corrupted_pieces () =
  (* Corrupt a minority of pieces; vote + graph phase must reject them. *)
  let w = watermark_of params_small 21L 60 in
  let rng = Util.Prng.create 22L in
  let pieces =
    List.concat_map (fun s -> [ s; s; s ])
      (Statement.all_of_watermark params_small w)
  in
  let corrupted =
    List.init 30 (fun _ ->
        let all = Array.of_list (Statement.all_of_watermark params_small w) in
        let s = Util.Prng.pick rng all in
        let m = Statement.modulus params_small s in
        { s with Statement.x = (s.Statement.x + 1 + Util.Prng.int rng (m - 1)) mod m })
  in
  match Recombine.recover_value params_small (pieces @ corrupted) with
  | None -> Alcotest.fail "recovery must survive corrupted minority"
  | Some w' -> Alcotest.check big "recovered despite corruption" w w'

let qcheck_encode_decode =
  QCheck.Test.make ~name:"statement encode/decode roundtrip" ~count:300 (QCheck.int_bound 1_000_000) (fun seed ->
      let w = watermark_of params_small (Int64.of_int (seed + 1000)) 60 in
      let stmts = Statement.all_of_watermark params_small w in
      List.for_all
        (fun s ->
          match Statement.decode params_small (Statement.encode params_small s) with
          | Some s' -> Statement.equal s s'
          | None -> false)
        stmts)

let qcheck_recover_roundtrip =
  QCheck.Test.make ~name:"recover finds any representable watermark" ~count:50 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let w = watermark_of params_small (Int64.of_int (seed + 5000)) 55 in
      match Recombine.recover_value params_small (Statement.all_of_watermark params_small w) with
      | Some w' -> Bignum.equal w w'
      | None -> false)

(* ---- the per-prime CRT ----

   [Recombine.solve] recombines one residue per prime; it must give what
   the Generalized CRT gives over the statements' own congruences. *)

let gcrt_value params used =
  Numtheory.Gcrt.solve (List.map (Statement.to_congruence params) used)

let covers (params : Params.t) statements =
  let mentioned = Array.make (Params.r params) false in
  List.iter
    (fun (s : Statement.t) ->
      mentioned.(s.i) <- true;
      mentioned.(s.j) <- true)
    statements;
  Array.for_all Fun.id mentioned

let show_value = function Some v -> Bignum.to_string v | None -> "none"

(* every corpus trace's recovery, through the recognizer's own harvest *)
let test_solve_matches_gcrt_on_corpus () =
  let covered = ref 0 in
  List.iter
    (fun (e : Vm_corpus.entry) ->
      let params = Params.make ~passphrase:Vm_corpus.key ~watermark_bits:e.bits () in
      let report = Recombine.recover_from_bitstring params (Vm_corpus.trace_bits e) in
      let expected = if report.Recombine.covered then gcrt_value params report.Recombine.used else None in
      if report.Recombine.covered then incr covered;
      Alcotest.(check string) e.name (show_value expected) (show_value report.Recombine.value))
    (Lazy.force Vm_corpus.entries);
  Alcotest.(check bool) "not vacuous: the marked entries are covered" true (!covered >= 36)

(* random subsets of a watermark's true statements (pairwise consistent,
   often short of a prime), sometimes with one random statement added
   that may contradict them; primes of 12, 25 and 30 bits *)
let qcheck_solve_matches_gcrt =
  let tables =
    [|
      params_small;
      Params.make ~passphrase:"per-prime crt" ~watermark_bits:128 ();
      Params.make ~prime_bits:30 ~block_bits:62 ~passphrase:"wide primes" ~watermark_bits:87 ();
      params_768;
    |]
  in
  QCheck.Test.make ~name:"per-prime CRT equals the Generalized CRT" ~count:300 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Prng.create (Int64.of_int (seed + 101)) in
      let params = tables.(seed mod Array.length tables) in
      let w = watermark_of params (Int64.of_int (seed + 3)) (Params.max_watermark_bits params) in
      let keep = 1 + Util.Prng.int rng 100 in
      let statements =
        List.filter (fun _ -> Util.Prng.int rng 100 < keep) (Statement.all_of_watermark params w)
      in
      let statements =
        if Util.Prng.bool rng then statements
        else begin
          let r = Params.r params in
          let i = Util.Prng.int rng (r - 1) in
          let j = i + 1 + Util.Prng.int rng (r - 1 - i) in
          let x = Util.Prng.int rng (params.Params.primes.(i) * params.Params.primes.(j)) in
          { Statement.i; j; x } :: statements
        end
      in
      let expected = if covers params statements then gcrt_value params statements else None in
      Option.equal Bignum.equal expected (Recombine.solve params statements))

let suite =
  [
    ("params deterministic from passphrase", `Quick, test_params_deterministic);
    ("params capacity", `Quick, test_params_capacity);
    ("params primes distinct", `Quick, test_params_primes_distinct);
    ("statements of watermark", `Quick, test_statements_of_watermark);
    ("enumeration roundtrip", `Quick, test_enumeration_roundtrip);
    ("enumeration injective", `Quick, test_enumeration_injective);
    ("unenumerate rejects garbage", `Quick, test_unenumerate_garbage);
    ("encode/decode through cipher", `Quick, test_encode_decode);
    ("statement bits width", `Quick, test_statement_bits_width);
    ("consistency predicate", `Quick, test_consistency_predicate);
    ("pieces cover all pairs", `Quick, test_pieces_cover);
    ("recover with all pieces", `Quick, test_recover_all_pieces);
    ("recover from spanning subset", `Quick, test_recover_spanning_subset);
    ("recover refuses uncovered prime", `Quick, test_recover_fails_without_coverage);
    ("recover with garbage", `Quick, test_recover_with_garbage);
    ("recover from bitstring", `Quick, test_recover_from_bitstring_contiguous);
    ("recover stride-2 pieces", `Quick, test_recover_from_bitstring_stride2);
    ("recover 768-bit watermark", `Quick, test_recover_768_bit);
    ("recover 768-bit after deletion", `Quick, test_recover_768_after_deletion);
    ("recover with corrupted pieces", `Quick, test_recover_with_corrupted_pieces);
    QCheck_alcotest.to_alcotest qcheck_encode_decode;
    QCheck_alcotest.to_alcotest qcheck_recover_roundtrip;
    ("per-prime CRT matches the Generalized CRT on the corpus", `Quick, test_solve_matches_gcrt_on_corpus);
    QCheck_alcotest.to_alcotest qcheck_solve_matches_gcrt;
  ]

(* ---- parameter and boundary edge cases ---- *)

let test_params_rejects_bad_args () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero watermark bits" true
    (invalid (fun () -> Params.make ~passphrase:"x" ~watermark_bits:0 ()));
  Alcotest.(check bool) "tiny prime bits" true
    (invalid (fun () -> Params.make ~prime_bits:4 ~passphrase:"x" ~watermark_bits:64 ()));
  (* an enumeration too large for the block must be rejected *)
  Alcotest.(check bool) "overflow rejected" true
    (invalid (fun () -> Params.make ~prime_bits:30 ~passphrase:"x" ~watermark_bits:4000 ()))

let test_statement_rejects_bad_pairs () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  let w = Bignum.of_int 5 in
  Alcotest.(check bool) "i = j" true
    (invalid (fun () -> Statement.of_watermark params_small w ~pair:(2, 2)));
  Alcotest.(check bool) "j out of range" true
    (invalid (fun () -> Statement.of_watermark params_small w ~pair:(0, 99)));
  Alcotest.(check bool) "watermark too large" true
    (invalid (fun () -> Statement.of_watermark params_small (Params.capacity params_small) ~pair:(0, 1)))

let test_recover_empty_and_tiny () =
  Alcotest.(check bool) "no statements -> none" true (Recombine.recover_value params_small [] = None);
  (* one statement cannot cover all primes *)
  let w = watermark_of params_small 44L 40 in
  let s = Statement.of_watermark params_small w ~pair:(0, 1) in
  Alcotest.(check bool) "single statement insufficient" true
    (Recombine.recover_value params_small [ s ] = None)

(* failure injection: flip random bits in an encoded trace and check the
   error correction degrades gracefully rather than returning wrong marks *)
let test_bit_corruption_never_wrong () =
  let w = watermark_of params_small 71L 55 in
  let rng = Util.Prng.create 72L in
  let make_bits () =
    let bits = Util.Bitstring.create () in
    List.iter
      (fun s ->
        List.iter (Util.Bitstring.append bits) (Statement.bits params_small s);
        for _ = 1 to 10 do
          Util.Bitstring.append bits (Util.Prng.bool rng)
        done)
      (Statement.all_of_watermark params_small w);
    bits
  in
  List.iter
    (fun corruption ->
      let bits = make_bits () in
      let n = Util.Bitstring.length bits in
      let flips = int_of_float (corruption *. float_of_int n) in
      let corrupted = Util.Bitstring.to_string bits |> Bytes.of_string in
      for _ = 1 to flips do
        let i = Util.Prng.int rng n in
        Bytes.set corrupted i (if Bytes.get corrupted i = '0' then '1' else '0')
      done;
      let report =
        Recombine.recover_from_bitstring params_small
          (Util.Bitstring.of_string (Bytes.to_string corrupted))
      in
      match report.Recombine.value with
      | Some v ->
          (* whatever survives must be the true mark, never a wrong one *)
          Alcotest.(check bool)
            (Printf.sprintf "no wrong mark at %.0f%% corruption" (100.0 *. corruption))
            true (Bignum.equal v w)
      | None -> () (* losing the mark under heavy corruption is acceptable *))
    [ 0.0; 0.005; 0.02; 0.05; 0.15; 0.4 ]

(* [decode] sees arbitrary trace windows: it must answer [None] — never
   raise — for negative values, values beyond the block, and blocks that
   decrypt past the enumeration; and it must agree with [unenumerate]
   everywhere inside. *)
let test_decode_total () =
  let small = Params.make ~prime_bits:8 ~block_bits:16 ~passphrase:"decode totality" ~watermark_bits:8 () in
  let total = small.Params.enumeration_total in
  Alcotest.(check bool) "enumeration leaves room in the block" true (total < 1 lsl 16);
  List.iter
    (fun (params : Params.t) ->
      List.iter
        (fun v ->
          let none what r = Alcotest.(check bool) (Printf.sprintf "%s %d" what v) true (r = None) in
          none "decode" (Statement.decode params v);
          none "unenumerate" (Statement.unenumerate params v))
        [ -1; -2; -(1 lsl 40); min_int ])
    [ small; params_small; params_768 ];
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "beyond the block %d" v) true (Statement.decode small v = None))
    [ 1 lsl 16; (1 lsl 16) + 1; 1 lsl 40; max_int ];
  (* every 16-bit block: a statement exactly when its plaintext is below
     the enumeration total, and then the statement that plaintext names *)
  for block = 0 to (1 lsl 16) - 1 do
    let v = Crypto.Feistel.decrypt small.Params.cipher block in
    match Statement.decode small block with
    | None -> if v < total then Alcotest.failf "block %d (plaintext %d) rejected" block v
    | Some s ->
        if v >= total then Alcotest.failf "block %d (plaintext %d >= %d) accepted" block v total;
        Alcotest.(check int) "names its plaintext" v (Statement.enumerate small s)
  done;
  for v = total to (1 lsl 16) - 1 do
    if Statement.unenumerate small v <> None then Alcotest.failf "unenumerate %d beyond the total" v
  done;
  (* the 62-bit block: plaintexts drawn from [total, 2^62) *)
  let rng = Util.Prng.create 0xDEC0DEL in
  List.iter
    (fun (params : Params.t) ->
      let total = params.Params.enumeration_total in
      for _ = 1 to 2000 do
        let v = total + Util.Prng.int rng ((1 lsl 62) - 1 - total) in
        if Statement.decode params (Crypto.Feistel.encrypt params.Params.cipher v) <> None then
          Alcotest.failf "plaintext %d beyond the total decoded" v;
        if Statement.unenumerate params v <> None then Alcotest.failf "unenumerate %d beyond the total" v
      done)
    [ params_small; params_768 ]

let edge_suite =
  [
    ("decode is total without exceptions", `Quick, test_decode_total);
    ("params rejects bad args", `Quick, test_params_rejects_bad_args);
    ("statement rejects bad pairs", `Quick, test_statement_rejects_bad_pairs);
    ("recover on empty/tiny input", `Quick, test_recover_empty_and_tiny);
    ("bit corruption never yields a wrong mark", `Quick, test_bit_corruption_never_wrong);
  ]

let suite = suite @ edge_suite
