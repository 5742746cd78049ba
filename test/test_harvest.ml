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

let gen_segment =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun s -> Random s) (int_bound 100_000));
      (2, map2 (fun b n -> Run (b, n)) bool (int_range 1 400));
      (2, map3 (fun s p n -> Periodic (s, p, n)) (int_bound 100_000) (int_range 2 12) (int_range 1 40));
      (3, map3 (fun s st c -> Plant (s, st, c)) (int_bound 100_000) (int_range 1 3) (int_range 1 3));
    ]

let gen_case =
  let open QCheck.Gen in
  (* strides: any subset of {1, 2, 3}, in any order *)
  let strides = map (List.filter_map Fun.id) (flatten_l [ opt (pure 1); opt (pure 2); opt (pure 3) ]) in
  let strides = strides >>= shuffle_l in
  map4
    (fun p strides dedup shape -> (p, strides, dedup, shape))
    (int_bound (Array.length params_table - 1))
    strides bool
    (oneof
       [
         map (fun segs -> `Segments segs) (list_size (int_range 0 8) gen_segment);
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

(* ---- the memo across flushes ----

   Windows are looked up in the memo as they complete, and a miss claims
   its slot until the chunk it queued in is decrypted.  Two cases the
   random strings reach only by chance, held to the reference. *)

let harvests_agree name params bits =
  let expected = Reference.harvest params bits ~strides:[ 1; 2 ] in
  let got = Recombine.harvest params bits ~strides:[ 1; 2 ] in
  if expected <> got then
    Alcotest.failf "%s: harvester %s, reference %s" name (show got) (show expected);
  List.length expected

(* a statement's window, then filler, then the window again: with short
   filler the repeat hits the slot its first occurrence claimed while that
   miss is still queued, with long filler a full chunk (1024 windows, two
   per bit here) is decrypted in between, and with [count] read in between
   the flush comes from the read *)
let test_flush_between_miss_and_hit () =
  let _, params = params_table.(4) in
  let w = Bignum.of_int 201 in
  let s = List.hd (Statement.all_of_watermark params w) in
  let found = ref 0 in
  List.iter
    (fun filler ->
      let bits = Util.Bitstring.create () in
      let rng = Util.Prng.create (Int64.of_int filler) in
      let piece () = List.iter (Util.Bitstring.append bits) (Statement.bits params s) in
      piece ();
      for _ = 1 to filler do
        Util.Bitstring.append bits (Util.Prng.bool rng)
      done;
      piece ();
      found := !found + harvests_agree (Printf.sprintf "filler %d" filler) params bits;
      (* the same bits with a read of the results after the first piece *)
      let h = Harvester.create params ~strides:[ 1; 2 ] in
      let pushed = ref 0 in
      Util.Bitstring.iter
        (fun b ->
          Harvester.push h b;
          incr pushed;
          if !pushed = params.block_bits then ignore (Harvester.count h))
        bits;
      Alcotest.(check string)
        (Printf.sprintf "filler %d, read after the first piece" filler)
        (show (Recombine.harvest params bits ~strides:[ 1; 2 ]))
        (show (Harvester.statements h)))
    (List.init 40 (fun i -> i * 3) @ List.init 40 (fun i -> 480 + (i * 2)));
  Alcotest.(check bool) "the pieces are found" true (!found >= 80)

(* the memo's slot function, as the harvester computes it *)
let memo_slot block = (block * 0x2545F4914F6CDD1D) lsr (63 - 14)

(* two blocks that decode and share a memo slot, each queued twice in
   one chunk so that both claim the slot in turn, then each once more
   after the flush: the slot must end up holding its last claimer's
   plaintext, not the first's.  The pair is drawn from the upper half of
   the blocks: block 0's windows shifted into their neighbours repeat it,
   which hides a slot left holding the wrong plaintext. *)
let test_misses_collide_on_a_slot () =
  let _, params = params_table.(4) in
  let decodes b = Statement.decode params b <> None in
  let first = ref (-1) and second = ref (-1) in
  let seen = Hashtbl.create 4096 in
  (try
     for b = 1 lsl (params.block_bits - 1) to (1 lsl params.block_bits) - 1 do
       if decodes b then
         match Hashtbl.find_opt seen (memo_slot b) with
         | Some a ->
             first := a;
             second := b;
             raise Exit
         | None -> Hashtbl.replace seen (memo_slot b) b
     done
   with Exit -> ());
  Alcotest.(check bool) "a colliding pair exists" true (!first >= 0);
  let window bits block = Util.Bitstring.append_int bits ~value:block ~width:params.block_bits in
  let a = !first and b = !second in
  List.iter
    (fun (name, order) ->
      let bits = Util.Bitstring.create () in
      List.iter (window bits) order;
      Alcotest.(check bool)
        (name ^ ": statements found")
        true
        (harvests_agree name params bits >= List.length order))
    [
      ("a b a b", [ a; b; a; b ]);
      ("a b b a", [ a; b; b; a ]);
      ("b a", [ b; a ]);
    ];
  (* the same, with a flush between the claims and the later lookups *)
  let h = Harvester.create params ~strides:[ 1 ] in
  let push block =
    for k = 0 to params.block_bits - 1 do
      Harvester.push h ((block lsr k) land 1 = 1)
    done
  in
  push a;
  push b;
  ignore (Harvester.count h);
  push b;
  push a;
  let bits = Util.Bitstring.create () in
  List.iter (window bits) [ a; b; b; a ];
  Alcotest.(check string) "flushed between the claims and the lookups"
    (show (Reference.harvest params bits ~strides:[ 1 ]))
    (show (Harvester.statements h))

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

(* ---- flushes anywhere ----

   A read of [count] flushes the buffered bits wherever it falls, and a
   full buffer flushes itself: the lanes' chains, the memo's contents and
   the overlap dedup state must carry across every flush, so that where
   the flushes fall never changes the statements.  The reads land at
   random positions, halfway through a window, right after a window that
   claimed a memo slot (the first occurrence of its block on the first
   lane, so a miss), and, in the long cases, whose segments follow a
   random prefix that brings them up to the buffer's cap, one bit before,
   at and after the cap. *)

type flush_case = {
  fp : int;  (* index into [params_table] *)
  fstrides : int list;
  fdedup : bool;
  segments : segment list;
  prefix : int;  (* random bits before the segments: 0, or about the buffer's cap *)
  fseed : int;  (* the prefix bits and the read positions *)
}

let gen_flush_case =
  let open QCheck.Gen in
  let* long = frequency [ (1, pure true); (7, pure false) ] in
  let* fp = int_bound (Array.length params_table - 1) in
  let* fstrides = oneofl [ [ 1; 2 ]; [ 1 ]; [ 3 ] ] in
  let* fdedup = bool in
  let* segments = list_size (int_range 1 8) gen_segment in
  let* back = int_bound 400 in
  let* fseed = int_bound 100_000 in
  return { fp; fstrides; fdedup; segments; prefix = (if long then Harvester.buffer_bits - back else 0); fseed }

let print_flush_case c =
  Printf.sprintf "params=%s strides=[%s] dedup=%b segments=%d prefix=%d seed=%d"
    (fst params_table.(c.fp))
    (String.concat ";" (List.map string_of_int c.fstrides))
    c.fdedup (List.length c.segments) c.prefix c.fseed

(* the read positions, as numbers of bits pushed before the read *)
let read_positions (params : Params.t) c bits =
  let len = Util.Bitstring.length bits in
  let rng = Util.Prng.create (Int64.of_int c.fseed) in
  let stride = List.hd c.fstrides in
  let reach = (params.block_bits - 1) * stride in
  (* windows completed within the segments (and the prefix's last few),
     each first occurrence of a block a miss that claims its slot *)
  let seen = Hashtbl.create 256 and claims = ref [] in
  for pos = max 0 (c.prefix - reach) to len - 1 - reach do
    match Util.Bitstring.window bits ~pos ~stride ~width:params.block_bits with
    | Some block when not (Hashtbl.mem seen block) ->
        Hashtbl.replace seen block ();
        claims := pos :: !claims
    | _ -> ()
  done;
  let claims = Array.of_list !claims in
  let picked =
    List.init (min 6 (Array.length claims)) (fun _ ->
        let pos = claims.(Util.Prng.int rng (Array.length claims)) in
        (* right after the claiming window's last bit, and halfway through it *)
        [ pos + reach + 1; pos + (reach / 2) ])
  in
  let random = List.init (Util.Prng.int rng 5) (fun _ -> Util.Prng.int rng (len + 1)) in
  let cap =
    if len > Harvester.buffer_bits then
      List.filter (fun _ -> Util.Prng.bool rng) [ Harvester.buffer_bits - 1; Harvester.buffer_bits; Harvester.buffer_bits + 1 ]
    else []
  in
  List.sort_uniq compare (List.filter (fun p -> p <= len) (List.concat picked @ random @ cap))

let qcheck_flushes_anywhere =
  QCheck.Test.make ~name:"reads and full buffers may flush anywhere" ~count:200
    (QCheck.make ~print:print_flush_case gen_flush_case)
    (fun c ->
      let _, params = params_table.(c.fp) in
      let bits = Util.Bitstring.create () in
      let rng = Util.Prng.create (Int64.of_int (c.fseed + 1)) in
      for _ = 1 to c.prefix do
        Util.Bitstring.append bits (Util.Prng.bool rng)
      done;
      Util.Bitstring.iter (Util.Bitstring.append bits) (render params c.segments);
      let reads = read_positions params c bits in
      let h = Harvester.create ~dedup_overlaps:c.fdedup params ~strides:c.fstrides in
      let pending = ref reads and counts = ref [] in
      let pushed = ref 0 in
      let read_due () =
        while match !pending with p :: _ -> p = !pushed | [] -> false do
          counts := Harvester.count h :: !counts;
          pending := List.tl !pending
        done
      in
      Util.Bitstring.iter
        (fun b ->
          read_due ();
          Harvester.push h b;
          incr pushed)
        bits;
      read_due ();
      let got = Harvester.statements h in
      let once = Recombine.harvest ~dedup_overlaps:c.fdedup params bits ~strides:c.fstrides in
      let expected = Reference.harvest ~dedup_overlaps:c.fdedup params bits ~strides:c.fstrides in
      let counts = List.rev !counts in
      (got = once && once = expected
      && Harvester.count h = List.length got
      && Harvester.length h = Util.Bitstring.length bits
      && List.sort compare counts = counts)
      || QCheck.Test.fail_reportf "%s len=%d reads=[%s]\nreference: %s\nread-flushed: %s\nread once: %s"
           (print_flush_case c) (Util.Bitstring.length bits)
           (String.concat ";" (List.map string_of_int reads))
           (show expected) (show got) (show once))

let suite =
  [
    ("planted bit-strings produce hits", `Quick, test_generator_hits);
    ("stride below 1 rejected", `Quick, test_bad_stride);
    ("a flush between a miss and its repeat", `Quick, test_flush_between_miss_and_hit);
    ("two misses in one chunk collide on a memo slot", `Quick, test_misses_collide_on_a_slot);
    ("real traces match the reference", `Quick, test_real_traces);
    QCheck_alcotest.to_alcotest qcheck_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_decoder_matches_hashtbl;
    ("the all-ones site decodes outside the table", `Quick, test_all_ones_site);
    ("one-pass recognition matches the materialized chain", `Quick, test_one_pass_matches_chain);
    QCheck_alcotest.to_alcotest qcheck_flushes_anywhere;
  ]
