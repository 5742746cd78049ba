(* The harvester against a reference: the original window-by-window
   harvest, kept verbatim below, must agree with the incremental harvester
   statement for statement — on random bit-strings and on the trace of
   every VM workload. *)

open Codec

(* ---- the reference: every window rebuilt from scratch, decrypted with the
   range-checked cipher, unenumerated by rescanning every pair ---- *)
module Reference = struct
  let unenumerate (params : Params.t) v =
    if v < 0 then None
    else begin
      let r = Array.length params.primes in
      let rec scan i j off =
        if i >= r - 1 then None
        else if j >= r then scan (i + 1) (i + 2) off
        else begin
          let m = params.primes.(i) * params.primes.(j) in
          if v < off + m then Some { Statement.i; j; x = v - off } else scan i (j + 1) (off + m)
        end
      in
      scan 0 1 0
    end

  let decode params block =
    match Crypto.Feistel.decrypt params.Params.cipher block with
    | v -> unenumerate params v
    | exception Invalid_argument _ -> None

  let harvest ?(dedup_overlaps = true) (params : Params.t) bits ~strides =
    let width = params.block_bits in
    let out = ref [] in
    List.iter
      (fun stride ->
        let last_seen = Hashtbl.create 64 in
        let span = width * stride in
        let pos = ref 0 in
        let continue = ref true in
        while !continue do
          match Util.Bitstring.window bits ~pos:!pos ~stride ~width with
          | None -> continue := false
          | Some block ->
              (match decode params block with
              | Some s ->
                  let key = (s.Statement.i, s.Statement.j, s.Statement.x) in
                  let fresh =
                    (not dedup_overlaps)
                    ||
                    match Hashtbl.find_opt last_seen key with
                    | Some prev -> !pos - prev >= span
                    | None -> true
                  in
                  Hashtbl.replace last_seen key !pos;
                  if fresh then out := s :: !out
              | None -> ());
              incr pos
        done)
      strides;
    !out
end

let show stmts = String.concat "; " (List.map (Format.asprintf "%a" Statement.pp) stmts)

(* ---- random bit-strings ---- *)

(* Four widths at the default 62-bit block, and two small blocks whose
   enumeration fills a large share of the block, so that hits — and the
   overlap dedup — are common. *)
let params_table =
  Array.of_list
    (List.map
       (fun w -> (Printf.sprintf "w%d" w, Params.make ~passphrase:"harvest oracle" ~watermark_bits:w ()))
       [ 16; 64; 256; 512 ]
    @ [
        ("b16", Params.make ~prime_bits:8 ~block_bits:16 ~passphrase:"harvest oracle" ~watermark_bits:8 ());
        ("b20", Params.make ~prime_bits:8 ~block_bits:20 ~passphrase:"harvest oracle" ~watermark_bits:16 ());
      ])

type segment =
  | Random of int  (* seeded random bits *)
  | Run of bool * int  (* a constant run *)
  | Periodic of int * int * int  (* a seeded pattern of some period, repeated n times *)
  | Plant of int * int * int  (* encoded statement (seed), at stride, repeated *)

(* Planted statements are true pieces of some watermark, spread at their
   stride with random filler in between, so windows hit at the real
   stride and, repeated back to back, overlap. *)
let render (params : Params.t) segments =
  let bits = Util.Bitstring.create () in
  List.iter
    (function
      | Random seed ->
          let rng = Util.Prng.create (Int64.of_int seed) in
          for _ = 1 to seed mod 300 do
            Util.Bitstring.append bits (Util.Prng.bool rng)
          done
      | Run (b, n) ->
          for _ = 1 to n do
            Util.Bitstring.append bits b
          done
      | Periodic (seed, period, n) ->
          let rng = Util.Prng.create (Int64.of_int seed) in
          let pattern = List.init period (fun _ -> Util.Prng.bool rng) in
          for _ = 1 to n do
            List.iter (Util.Bitstring.append bits) pattern
          done
      | Plant (seed, stride, copies) ->
          let rng = Util.Prng.create (Int64.of_int seed) in
          let w = Bignum.of_int (seed land ((1 lsl Params.max_watermark_bits params) - 1)) in
          let all = Array.of_list (Statement.all_of_watermark params w) in
          let s = all.(Util.Prng.int rng (Array.length all)) in
          for _ = 1 to copies do
            List.iter
              (fun b ->
                Util.Bitstring.append bits b;
                for _ = 2 to stride do
                  Util.Bitstring.append bits (Util.Prng.bool rng)
                done)
              (Statement.bits params s)
          done)
    segments;
  bits

let gen_case =
  let open QCheck.Gen in
  let segment =
    frequency
      [
        (3, map (fun s -> Random s) (int_bound 100_000));
        (2, map2 (fun b n -> Run (b, n)) bool (int_range 1 400));
        (2, map3 (fun s p n -> Periodic (s, p, n)) (int_bound 100_000) (int_range 2 12) (int_range 1 40));
        (3, map3 (fun s st c -> Plant (s, st, c)) (int_bound 100_000) (int_range 1 3) (int_range 1 3));
      ]
  in
  (* strides: any subset of {1, 2, 3}, in any order *)
  let strides = map (List.filter_map Fun.id) (flatten_l [ opt (pure 1); opt (pure 2); opt (pure 3) ]) in
  let strides = strides >>= shuffle_l in
  map4
    (fun p strides dedup shape -> (p, strides, dedup, shape))
    (int_bound (Array.length params_table - 1))
    strides bool
    (oneof
       [
         map (fun segs -> `Segments segs) (list_size (int_range 0 8) segment);
         (* lengths around block_bits * stride, where the last window fits
            or just fails to *)
         map2 (fun seed d -> `Around (seed, d)) (int_bound 100_000) (int_range (-3) 3);
       ])

let bits_of_case (params : Params.t) strides = function
  | `Segments segs -> render params segs
  | `Around (seed, d) ->
      let stride = List.fold_left max 1 strides in
      let rng = Util.Prng.create (Int64.of_int seed) in
      let bits = Util.Bitstring.create () in
      for _ = 1 to max 0 ((params.block_bits * stride) + d) do
        Util.Bitstring.append bits (Util.Prng.bool rng)
      done;
      bits

let print_case (p, strides, dedup, _) =
  let name, _ = params_table.(p) in
  Printf.sprintf "params=%s strides=[%s] dedup=%b" name
    (String.concat ";" (List.map string_of_int strides))
    dedup

let qcheck_matches_reference =
  QCheck.Test.make ~name:"harvest matches the reference harvest" ~count:1000
    (QCheck.make ~print:print_case gen_case)
    (fun ((p, strides, dedup_overlaps, shape) as case) ->
      let _, params = params_table.(p) in
      let bits = bits_of_case params strides shape in
      let expected = Reference.harvest ~dedup_overlaps params bits ~strides in
      let got = Recombine.harvest ~dedup_overlaps params bits ~strides in
      expected = got
      || QCheck.Test.fail_reportf "%s len=%d\nreference: %s\nharvester: %s" (print_case case)
           (Util.Bitstring.length bits) (show expected) (show got))

(* the generator must actually exercise hits and the dedup: planted pieces
   are found at the default block, and on a small block, where most windows
   decode, periodic patterns repeat one statement in overlapping windows *)
let test_generator_hits () =
  let _, params = params_table.(1) in
  let planted = render params [ Plant (5, 1, 3); Run (true, 100); Plant (9, 2, 2) ] in
  Alcotest.(check bool) "planted pieces found" true
    (List.length (Recombine.harvest params planted ~strides:[ 1; 2 ]) >= 5);
  let _, small = params_table.(4) in
  let periodic = render small [ Periodic (3, 5, 30); Run (false, 60); Periodic (8, 7, 30) ] in
  let deduped = Recombine.harvest small periodic ~strides:[ 1; 2 ] in
  let all = Recombine.harvest ~dedup_overlaps:false small periodic ~strides:[ 1; 2 ] in
  Alcotest.(check bool) "overlap dedup drops repeats" true (List.length all > List.length deduped)

let test_bad_stride () =
  let _, params = params_table.(1) in
  Alcotest.check_raises "stride 0" (Invalid_argument "Harvester.create: stride") (fun () ->
      ignore (Recombine.harvest params (Util.Bitstring.of_string "0101") ~strides:[ 1; 0 ]))

(* ---- real traces ---- *)

let test_real_traces () =
  List.iter
    (fun (e : Vm_corpus.entry) ->
      let params = Params.make ~passphrase:Vm_corpus.key ~watermark_bits:e.bits () in
      let bits = Vm_corpus.trace_bits e in
      let expected = Reference.harvest params bits ~strides:[ 1; 2 ] in
      let got = Recombine.harvest params bits ~strides:[ 1; 2 ] in
      if expected <> got then Alcotest.failf "%s: harvest differs from the reference" e.name;
      Alcotest.(check string)
        (e.name ^ ": report")
        (Vm_corpus.show_report (Recombine.recover params expected))
        (Vm_corpus.show_report (Recombine.recover params got)))
    (Lazy.force Vm_corpus.entries)

let suite =
  [
    ("planted bit-strings produce hits", `Quick, test_generator_hits);
    ("stride below 1 rejected", `Quick, test_bad_stride);
    ("real traces match the reference", `Quick, test_real_traces);
    QCheck_alcotest.to_alcotest qcheck_matches_reference;
  ]
