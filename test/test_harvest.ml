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

(* ---- the trace-bit decoder and the site table against a Hashtbl ----

   The flat open-addressed table must decode and number sites exactly as
   a Hashtbl keyed on the packed site: up to 700 sites, so the table grows
   past its first 256 slots; pcs from a pool of eight, so many sites differ
   only in fidx; and fields at the 31-bit edges, where packed events turn
   negative and the all-ones site's taken event is -1. *)
let qcheck_decoder_matches_hashtbl =
  let print (nsites, seed) = Printf.sprintf "sites=%d seed=%d" nsites seed in
  QCheck.Test.make ~name:"trace decoder and site ids match a Hashtbl" ~count:300
    (QCheck.make ~print QCheck.Gen.(pair (int_range 1 700) (int_bound 100_000)))
    (fun (nsites, seed) ->
      let rng = Util.Prng.create (Int64.of_int seed) in
      let field () =
        match Util.Prng.int rng 4 with
        | 0 -> Util.Prng.int rng 4
        | 1 -> 0x7FFF_FFFF - Util.Prng.int rng 2
        | 2 -> (1 lsl 30) + Util.Prng.int rng 4
        | _ -> Util.Prng.bits rng 31
      in
      let pcs = Array.init 8 (fun _ -> field ()) in
      let pool = Array.init nsites (fun _ -> (field (), Util.Prng.pick rng pcs)) in
      let first = Hashtbl.create 64 and ids = Hashtbl.create 64 in
      let decoder = Stackvm.Trace.Decoder.create () and sites = Stackvm.Trace.Sites.create () in
      for _ = 1 to Util.Prng.int rng 4000 do
        let fidx, pc = Util.Prng.pick rng pool in
        let e = Stackvm.Tracebuf.pack ~fidx ~pc ~taken:(Util.Prng.bool rng) in
        let site = Stackvm.Tracebuf.site e and taken = Stackvm.Tracebuf.taken e in
        let bit =
          match Hashtbl.find_opt first site with
          | Some reference -> taken <> reference
          | None ->
              Hashtbl.add first site taken;
              false
        in
        let id =
          match Hashtbl.find_opt ids site with
          | Some id -> id
          | None ->
              Hashtbl.add ids site (Hashtbl.length ids);
              Hashtbl.length ids - 1
        in
        let got_bit = Stackvm.Trace.Decoder.push decoder e in
        let got_id = Stackvm.Trace.Sites.id sites e in
        if got_bit <> bit || got_id <> id then
          QCheck.Test.fail_reportf "fidx=%d pc=%d taken=%b: bit %b (want %b), id %d (want %d)" fidx pc
            taken got_bit bit got_id id
      done;
      Stackvm.Trace.Sites.count sites = Hashtbl.length ids)

(* the one site whose first event cannot sit in the table *)
let test_all_ones_site () =
  let ones = 0x7FFF_FFFF in
  let events =
    [
      (ones, ones, true);
      (0, 0, false);
      (ones, ones, false);
      (ones, ones, true);
      (ones - 1, ones, false);
      (ones, ones, false);
      (0, 0, true);
    ]
  in
  let d = Stackvm.Trace.Decoder.create () and sites = Stackvm.Trace.Sites.create () in
  let got =
    List.map
      (fun (fidx, pc, taken) ->
        let e = Stackvm.Tracebuf.pack ~fidx ~pc ~taken in
        (Stackvm.Trace.Decoder.push d e, Stackvm.Trace.Sites.id sites e))
      events
  in
  Alcotest.(check (list (pair bool int)))
    "bits and ids"
    [ (false, 0); (false, 1); (true, 0); (false, 0); (false, 2); (true, 0); (true, 1) ]
    got;
  Alcotest.(check int) "three sites" 3 (Stackvm.Trace.Sites.count sites)

(* ---- one-pass recognition against the materialized chain ----

   [Jwm.Recognize.recognize] runs once, decoding and harvesting each event
   as it happens.  The chain it replaced — record a buffer, decode it into
   a bit-string, harvest, recover — is kept here as the reference: report,
   branch count, steps and confidence must agree on every corpus entry,
   on a run cut short by fuel, and on a program the engine rejects. *)
let reference_recognize ~fuel ~bits ~input prog =
  let params = Params.make ~passphrase:Vm_corpus.key ~watermark_bits:bits () in
  match Stackvm.Trace.record ~fuel prog ~input with
  | events, result ->
      let stmts = Recombine.harvest params (Stackvm.Trace.bits_of_buf events) ~strides:[ 1; 2 ] in
      let report = Recombine.recover params stmts in
      ( report,
        Stackvm.Tracebuf.length events,
        result.Stackvm.Interp.steps,
        Recombine.confidence params report,
        None )
  | exception e ->
      let report = Recombine.recover params [] in
      (report, 0, 0, Recombine.confidence params report, Some (Printexc.to_string e))

let check_against_chain name ~fuel ~bits ~input prog =
  let report, branches, steps, confidence, diagnostic = reference_recognize ~fuel ~bits ~input prog in
  let o = Jwm.Recognize.recognize ~fuel ~passphrase:Vm_corpus.key ~watermark_bits:bits ~input prog in
  Alcotest.(check string) (name ^ ": report") (Vm_corpus.show_report report)
    (Vm_corpus.show_report o.Jwm.Recognize.report);
  Alcotest.(check int) (name ^ ": trace_branches") branches o.Jwm.Recognize.trace_branches;
  Alcotest.(check int) (name ^ ": steps") steps o.Jwm.Recognize.steps;
  Alcotest.(check (float 0.)) (name ^ ": confidence") confidence o.Jwm.Recognize.partial.confidence;
  Alcotest.(check (option string)) (name ^ ": diagnostic") diagnostic o.Jwm.Recognize.diagnostic;
  o

let test_one_pass_matches_chain () =
  let fuel = 200_000_000 in
  List.iter
    (fun (e : Vm_corpus.entry) ->
      let o = check_against_chain e.name ~fuel ~bits:e.bits ~input:e.input e.program in
      match e.mark with
      | Some w ->
          Alcotest.(check bool)
            (e.name ^ ": mark recovered")
            true
            (Option.equal Bignum.equal (Some w) o.Jwm.Recognize.value)
      | None -> ())
    (Lazy.force Vm_corpus.entries);
  let e = List.hd (Vm_corpus.marked ()) in
  let full =
    Jwm.Recognize.recognize ~passphrase:Vm_corpus.key ~watermark_bits:e.bits ~input:e.input e.program
  in
  let cut = full.Jwm.Recognize.steps / 3 in
  let o = check_against_chain (e.name ^ "/fuel-cut") ~fuel:cut ~bits:e.bits ~input:e.input e.program in
  Alcotest.(check bool) "the fuel cut shortened the trace" true
    (o.Jwm.Recognize.trace_branches < full.Jwm.Recognize.trace_branches && o.Jwm.Recognize.steps = cut);
  let rejected = { e.program with Stackvm.Program.main = "no such function" } in
  let o = check_against_chain "rejected program" ~fuel ~bits:e.bits ~input:e.input rejected in
  Alcotest.(check bool) "the degraded arm ran" true (o.Jwm.Recognize.diagnostic <> None)

let suite =
  [
    ("planted bit-strings produce hits", `Quick, test_generator_hits);
    ("stride below 1 rejected", `Quick, test_bad_stride);
    ("real traces match the reference", `Quick, test_real_traces);
    QCheck_alcotest.to_alcotest qcheck_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_decoder_matches_hashtbl;
    ("the all-ones site decodes outside the table", `Quick, test_all_ones_site);
    ("one-pass recognition matches the materialized chain", `Quick, test_one_pass_matches_chain);
  ]
