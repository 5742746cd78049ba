(* Graph-watermark recognition against a reference: the original
   recognizer — interpreter capture ({!Vm_oracle}), the trace as an event
   list, per-site bool-list streams in a tuple-keyed table, a sync match
   tried at every position of each stream and of its complement — kept
   verbatim below.
   The packed-buffer recognizer must return the identical outcome record
   on every VM workload (unmarked and gwm-marked, right and wrong key),
   under the trace fault plans, on fuel-cut and trapping runs, and on
   random event streams with planted sync words. *)

module Reference = struct
  module Encode = Gwm.Encode

  type outcome = Gwm.Recognize.outcome = {
    value : Bignum.t option;
    confidence : float;
    copies_found : int;
    candidates : int;
    trace_branches : int;
    steps : int;
    diagnostic : string option;
  }

  (* Streams of taken-bits per static branch site, in dynamic order. *)
  let streams events =
    let tbl : (int * int, bool list ref) Hashtbl.t = Hashtbl.create 32 in
    let order = ref [] in
    List.iter
      (fun (e : Stackvm.Trace.branch_event) ->
        let key = (e.fidx, e.pc) in
        match Hashtbl.find_opt tbl key with
        | Some cell -> cell := e.taken :: !cell
        | None ->
            Hashtbl.add tbl key (ref [ e.taken ]);
            order := key :: !order)
      events;
    List.rev_map (fun key -> Array.of_list (List.rev !(Hashtbl.find tbl key))) !order

  let matches_sync stream pos sync =
    let n = Array.length sync in
    pos + n <= Array.length stream
    && (let ok = ref true in
        for k = 0 to n - 1 do
          if stream.(pos + k) <> sync.(k) then ok := false
        done;
        !ok)

  (* Candidate payload windows after every sync match, on the stream and on
     its complement (branch-sense inversion flips every bit of a site). *)
  let windows ~m ~sync stream =
    let need = Encode.payload_bits m + Encode.checksum_bits in
    let collect s acc =
      let acc = ref acc in
      for pos = Array.length s - Array.length sync downto 0 do
        if matches_sync s pos sync then
          let start = pos + Array.length sync in
          if start + need <= Array.length s then
            acc := List.init need (fun k -> s.(start + k)) :: !acc
      done;
      !acc
    in
    let inv = Array.map not stream in
    collect stream (collect inv [])

  let majority_vote values =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun v ->
        let k = Bignum.to_string v in
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      values;
    Hashtbl.fold
      (fun k n best ->
        match best with
        | Some (_, bn) when bn >= n -> best
        | _ -> Some (Bignum.of_string k, n))
      tbl None

  let bitwise_majority wins =
    match wins with
    | [] -> None
    | first :: _ ->
        let n = List.length first in
        let counts = Array.make n 0 and total = List.length wins in
        List.iter
          (List.iteri (fun k b -> if b then counts.(k) <- counts.(k) + 1))
          wins;
        Some (List.init n (fun k -> 2 * counts.(k) > total))

  let decode ~m ~sync events =
    let trace_branches = List.length events in
    let wins =
      List.concat_map (windows ~m ~sync) (streams events)
    in
    let candidates = List.length wins in
    let decoded =
      List.filter_map
        (fun w -> match Encode.decode_payload ~m w with Ok v -> Some v | Error _ -> None)
        wins
    in
    match majority_vote decoded with
    | Some (v, n) ->
        let agree = float_of_int n /. float_of_int (List.length decoded) in
        let damp = float_of_int n /. float_of_int (n + 1) in
        {
          value = Some v;
          confidence = agree *. damp;
          copies_found = n;
          candidates;
          trace_branches;
          steps = 0;
          diagnostic = None;
        }
    | None -> (
        (* No window decoded cleanly: per-bit majority across the aligned
           windows may still cancel independent flips. *)
        match bitwise_majority wins with
        | Some bits when Result.is_ok (Encode.decode_payload ~m bits) ->
            let v = Result.get_ok (Encode.decode_payload ~m bits) in
            {
              value = Some v;
              confidence = 0.3;
              copies_found = 0;
              candidates;
              trace_branches;
              steps = 0;
              diagnostic = Some "recovered by per-bit majority only";
            }
        | _ ->
            {
              value = None;
              confidence = 0.;
              copies_found = 0;
              candidates;
              trace_branches;
              steps = 0;
              diagnostic =
                Some
                  (if trace_branches = 0 then "empty trace"
                   else if candidates = 0 then "sync word not found in any branch stream"
                   else "no candidate window decoded");
            })

  let recognize_branches ~passphrase ~watermark_bits events =
    let m = Encode.order_for_bits watermark_bits in
    let sync = Array.of_list (Encode.sync_word ~key:passphrase) in
    decode ~m ~sync events

  let recognize ?(fuel = 200_000_000) ~passphrase ~watermark_bits ~input prog =
    match Vm_oracle.capture ~fuel ~want_snapshots:false prog ~input with
    | trace ->
        let events = Array.to_list trace.Stackvm.Trace.branches in
        let outcome = recognize_branches ~passphrase ~watermark_bits events in
        { outcome with steps = trace.Stackvm.Trace.result.Stackvm.Interp.steps }
    | exception _ ->
        {
          value = None;
          confidence = 0.;
          copies_found = 0;
          candidates = 0;
          trace_branches = 0;
          steps = 0;
          diagnostic = Some "program failed to run";
        }
end

let key = Vm_corpus.key
let wrong_key = "not the vm corpus key"

let show (o : Gwm.Recognize.outcome) =
  Printf.sprintf "value=%s confidence=%h copies=%d candidates=%d branches=%d steps=%d diagnostic=%s"
    (match o.value with Some v -> Bignum.to_string v | None -> "none")
    o.confidence o.copies_found o.candidates o.trace_branches o.steps
    (Option.value ~default:"-" o.diagnostic)

let check_same name expected got = Alcotest.(check string) name (show expected) (show got)

(* ---- every VM workload, unmarked and gwm-marked ---- *)

let marks =
  [
    (16, Bignum.of_int 40503);
    (64, Bignum.of_string "16045690984503098046");
    (128, Bignum.of_string "170141183460469231731687303715884105727");
  ]

(* (name, bits, mark, program, input) per workload: unmarked at 64 bits,
   then gwm-marked at 16, 64 and 128 bits *)
let corpus =
  lazy
    (List.concat_map
       (fun (wl : Workloads.Workload.t) ->
         let host = Workloads.Workload.vm_program wl in
         let marked (bits, mark) =
           let spec =
             { Gwm.Embed.passphrase = key; watermark = mark; watermark_bits = bits; copies = 8; input = wl.input }
           in
           ( Printf.sprintf "%s/gwm-%d" wl.name bits,
             bits,
             Some mark,
             (Gwm.Embed.embed ~seed:7L spec host).Gwm.Embed.program,
             wl.input )
         in
         (wl.name ^ "/unmarked", 64, None, host, wl.input) :: List.map marked marks)
       Vm_corpus.workloads)

let test_corpus () =
  List.iter
    (fun (name, bits, mark, prog, input) ->
      List.iter
        (fun passphrase ->
          let expected = Reference.recognize ~passphrase ~watermark_bits:bits ~input prog in
          let got = Gwm.Recognize.recognize ~passphrase ~watermark_bits:bits ~input prog in
          check_same (Printf.sprintf "%s key=%S" name passphrase) expected got)
        [ key; wrong_key ];
      (* the oracle must not be vacuous: the right key finds every mark *)
      match mark with
      | Some w ->
          Alcotest.(check bool) (name ^ " recovered") true
            (Gwm.Recognize.recognizes ~passphrase:key ~watermark_bits:bits ~input ~expected:w prog)
      | None -> ())
    (Lazy.force corpus)

(* ---- the trace fault plans, offline ---- *)

let test_fault_plans () =
  let same name events =
    check_same name
      (Reference.recognize_branches ~passphrase:key ~watermark_bits:64 events)
      (Gwm.Recognize.recognize_branches ~passphrase:key ~watermark_bits:64 events)
  in
  List.iter
    (fun (name, _, _, prog, input) ->
      let events =
        Array.to_list
          (Vm_oracle.capture ~want_snapshots:false prog ~input).Stackvm.Trace.branches
      in
      List.iter
        (fun fault ->
          let plan = Fault.Inject.make ~seed:1L [ fault ] in
          let noisy, _ = Fault.Inject.branches plan ~salt:name (Stackvm.Trace.buf_of_branches events) in
          same (name ^ " " ^ Fault.Inject.describe plan) (Array.to_list (Stackvm.Trace.branches_of_buf noisy)))
        Fault.Spec.[ Trace_flip 0.002; Trace_drop 0.002; Trace_dup 0.01; Trace_trunc 0.3; Trace_flip 0.5 ];
      (* every decision inverted: the complement search *)
      same (name ^ " inverted")
        (List.map (fun (e : Stackvm.Trace.branch_event) -> { e with taken = not e.taken }) events))
    (List.filter (fun (_, bits, mark, _, _) -> bits = 64 && mark <> None) (Lazy.force corpus))

(* ---- runs that do not finish ---- *)

let caffeine_marked () =
  List.find (fun (name, _, _, _, _) -> name = "caffeine/gwm-64") (Lazy.force corpus)

let test_fuel_cut () =
  let _, bits, _, prog, input = caffeine_marked () in
  let full = Reference.recognize ~passphrase:key ~watermark_bits:bits ~input prog in
  List.iter
    (fun fuel ->
      let expected = Reference.recognize ~fuel ~passphrase:key ~watermark_bits:bits ~input prog in
      let got = Gwm.Recognize.recognize ~fuel ~passphrase:key ~watermark_bits:bits ~input prog in
      check_same (Printf.sprintf "fuel %d" fuel) expected got;
      Alcotest.(check int) (Printf.sprintf "fuel %d: every step used" fuel) fuel got.steps)
    [ 1; 1000; full.steps / 3; full.steps / 2; full.steps - 1 ]

let test_trapping_run () =
  (* the walker runs on entry, before [main] reads its input: starved of
     input the program traps after the mark went by, and recognition must
     still decode that prefix *)
  let _, bits, mark, prog, _ = caffeine_marked () in
  let run = Stackvm.Compile.run_program prog ~input:[] in
  Alcotest.(check bool) "the run traps" true
    (match run.outcome with Stackvm.Interp.Trapped _ -> true | _ -> false);
  let expected = Reference.recognize ~passphrase:key ~watermark_bits:bits ~input:[] prog in
  let got = Gwm.Recognize.recognize ~passphrase:key ~watermark_bits:bits ~input:[] prog in
  check_same "trapping run" expected got;
  Alcotest.(check (option string)) "mark decoded from the prefix"
    (Option.map Bignum.to_string mark)
    (Option.map Bignum.to_string got.value);
  (* a program the backend refuses outright still reports, never raises *)
  let no_main = { prog with Stackvm.Program.main = "absent" } in
  check_same "no main"
    (Reference.recognize ~passphrase:key ~watermark_bits:bits ~input:[] no_main)
    (Gwm.Recognize.recognize ~passphrase:key ~watermark_bits:bits ~input:[] no_main)

(* ---- random event streams with planted sync words ---- *)

type segment =
  | Noise of int  (** that many random bits *)
  | Copy of bool * int  (** a whole emitted copy of value [i], complemented or not *)
  | Garbled of bool  (** the sync word, then a random payload-length tail *)
  | Cut of bool * int  (** the sync word, then fewer payload bits than a window needs *)
  | Sync_prefix of int  (** the first few bits of the sync word *)

let gen_segment =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun n -> Noise n) (int_bound 40));
      (3, map2 (fun inv i -> Copy (inv, i)) bool (int_bound 2));
      (2, map (fun inv -> Garbled inv) bool);
      (1, map2 (fun inv k -> Cut (inv, k)) bool (int_bound 100));
      (1, map (fun k -> Sync_prefix k) (int_bound (Gwm.Encode.sync_bits - 1)));
    ]

(* (watermark bits, right key?, per-site segment lists, interleaving seed) *)
let gen_case =
  let open QCheck.Gen in
  quad (int_range 1 40) bool (list_size (int_range 1 5) (list_size (int_range 0 5) gen_segment)) int

let print_segment = function
  | Noise n -> Printf.sprintf "noise %d" n
  | Copy (inv, i) -> Printf.sprintf "copy%s %d" (if inv then "~" else "") i
  | Garbled inv -> Printf.sprintf "garbled%s" (if inv then "~" else "")
  | Cut (inv, k) -> Printf.sprintf "cut%s %d" (if inv then "~" else "") k
  | Sync_prefix k -> Printf.sprintf "sync-prefix %d" k

let print_case (bits, right, sites, seed) =
  Printf.sprintf "bits=%d right_key=%b seed=%d sites=[%s]" bits right seed
    (String.concat " | " (List.map (fun segs -> String.concat "; " (List.map print_segment segs)) sites))

let site_bits ~bits ~seed segments =
  let m = Gwm.Encode.order_for_bits bits in
  let need = Gwm.Encode.payload_bits m + Gwm.Encode.checksum_bits in
  let rng = Util.Prng.create (Int64.of_int seed) in
  let random n = List.init n (fun _ -> Util.Prng.bool rng) in
  let sync = Gwm.Encode.sync_word ~key in
  let sense inv = List.map (fun b -> b <> inv) in
  (* three values, so copies repeat and the vote can tie *)
  let value i = Bignum.random_bits (Util.Prng.create (Int64.of_int (i + 1))) bits in
  List.concat_map
    (function
      | Noise n -> random n
      | Copy (inv, i) -> sense inv (Gwm.Encode.bitstream (value i) ~m ~key)
      | Garbled inv -> sense inv (sync @ random need)
      | Cut (inv, k) -> sense inv (sync @ random (k mod need))
      | Sync_prefix k -> List.filteri (fun j _ -> j < k) sync)
    segments

(* Interleave the per-site bit streams into one event list, each site's
   bits kept in order. *)
let events_of_case (bits, _, sites, seed) =
  let streams = Array.of_list (List.mapi (fun i segs -> ref (site_bits ~bits ~seed:(seed + i) segs)) sites) in
  let rng = Util.Prng.create (Int64.of_int seed) in
  let out = ref [] in
  let rec go () =
    let live = List.filter (fun i -> !(streams.(i)) <> []) (List.init (Array.length streams) Fun.id) in
    if live <> [] then begin
      let i = Util.Prng.pick_list rng live in
      (match !(streams.(i)) with
      | taken :: rest ->
          streams.(i) := rest;
          out := { Stackvm.Trace.fidx = i mod 2; pc = (3 * i) + 1; taken } :: !out
      | [] -> ());
      go ()
    end
  in
  go ();
  List.rev !out

let qcheck_matches_reference =
  QCheck.Test.make ~name:"packed-buffer recognition matches the reference" ~count:1000
    (QCheck.make ~print:print_case gen_case)
    (fun ((bits, right, _, _) as case) ->
      let passphrase = if right then key else wrong_key in
      let events = events_of_case case in
      let expected = Reference.recognize_branches ~passphrase ~watermark_bits:bits events in
      let via_list = Gwm.Recognize.recognize_branches ~passphrase ~watermark_bits:bits events in
      let via_buf =
        Gwm.Recognize.recognize_buf ~passphrase ~watermark_bits:bits (Stackvm.Trace.buf_of_branches events)
      in
      (show expected = show via_list && show expected = show via_buf)
      || QCheck.Test.fail_reportf "%s\nreference: %s\nlist:      %s\nbuffer:    %s" (print_case case)
           (show expected) (show via_list) (show via_buf))

(* the generator must reach the interesting branches of the decoder *)
let test_generator_reaches () =
  let outcome case =
    let bits, _, _, _ = case in
    Gwm.Recognize.recognize_branches ~passphrase:key ~watermark_bits:bits (events_of_case case)
  in
  let copies = outcome (24, true, [ [ Copy (false, 0); Noise 5; Copy (true, 0) ]; [ Copy (false, 1) ] ], 3) in
  Alcotest.(check int) "direct and complemented copies decode" 2 copies.copies_found;
  Alcotest.(check int) "three candidate windows" 3 copies.candidates;
  let ends = outcome (24, true, [ [ Noise 7; Copy (true, 2) ] ], 5) in
  Alcotest.(check int) "a window ending at the stream's end counts" 1 ends.candidates;
  let short = outcome (24, true, [ [ Sync_prefix 15 ]; [ Cut (false, 20) ] ], 9) in
  Alcotest.(check int) "short streams and cut windows yield nothing" 0 short.candidates

(* ---- the recognition sink, streamed, replayed and composed ---- *)

let show_recovered (r : Scheme.Watermarker.recovered) =
  Printf.sprintf "value=%s confidence=%h detail=%s"
    (match r.value with Some v -> Bignum.to_string v | None -> "none")
    r.confidence r.detail

let streamed (module W : Scheme.Watermarker.WATERMARKER) (spec : Scheme.Watermarker.spec) prog =
  let s = (Option.get W.sink) spec in
  ignore (Scheme.Watermarker.run_sink s spec prog);
  s.Scheme.Watermarker.finish ()

let replayed (module W : Scheme.Watermarker.WATERMARKER) (spec : Scheme.Watermarker.spec) prog =
  Scheme.Watermarker.recognize_events (Option.get W.sink) spec
    (fst (Stackvm.Trace.record ~fuel:200_000_000 prog ~input:spec.input))

(* the streamed run and the replay of a recorded trace both equal the
   scheme's own recognition *)
let check_streaming_equals_batch scheme cases =
  let w = Scheme.Builtin.find_exn scheme in
  let (module W : Scheme.Watermarker.WATERMARKER) = w in
  List.iter
    (fun (name, bits, prog, input) ->
      let spec = Scheme.Watermarker.spec ~key ~bits ~input () in
      let batch = show_recovered (W.recognize spec (Scheme.Watermarker.Vm_program prog)) in
      Alcotest.(check string) (scheme ^ " " ^ name) batch (show_recovered (streamed w spec prog));
      Alcotest.(check string) (scheme ^ " " ^ name ^ " replayed") batch (show_recovered (replayed w spec prog)))
    cases

let test_gwm_streaming () =
  check_streaming_equals_batch "gwm"
    (List.map (fun (name, bits, _, prog, input) -> (name, bits, prog, input)) (Lazy.force corpus))

(* the jwm-64 corpus entries with the same mark embedded again by gwm *)
let composite_cases =
  lazy
    (List.filter_map
       (fun (e : Vm_corpus.entry) ->
         match e.mark with
         | Some mark when e.bits = 64 ->
             let spec =
               { Gwm.Embed.passphrase = key; watermark = mark; watermark_bits = 64; copies = 8; input = e.input }
             in
             Some (e.name ^ "+gwm", 64, (Gwm.Embed.embed ~seed:7L spec e.program).Gwm.Embed.program, e.input)
         | _ -> None)
       (Lazy.force Vm_corpus.entries))

let test_composite_streaming () = check_streaming_equals_batch "jwm+gwm" (Lazy.force composite_cases)

(* The same members without their sinks: the composite can only ask each
   to recognize on its own, and combines what they report. *)
let one_by_one =
  let without_sink (module W : Scheme.Watermarker.WATERMARKER) : (module Scheme.Watermarker.WATERMARKER) =
    (module struct
      include W

      let sink = None
    end)
  in
  lazy
    (Scheme.Compose.compose
       (List.map (fun n -> without_sink (Scheme.Builtin.find_exn n)) [ "jwm"; "gwm" ]))

let check_composite_equals_members name spec prog =
  let (module C : Scheme.Watermarker.WATERMARKER) = Scheme.Builtin.find_exn "jwm+gwm" in
  let (module O : Scheme.Watermarker.WATERMARKER) = Lazy.force one_by_one in
  let carrier = Scheme.Watermarker.Vm_program prog in
  let got = C.recognize spec carrier in
  Alcotest.(check string) name (show_recovered (O.recognize spec carrier)) (show_recovered got);
  got

let test_composite_equals_members () =
  List.iter
    (fun (name, bits, prog, input) ->
      let spec = Scheme.Watermarker.spec ~key ~bits ~input () in
      let r = check_composite_equals_members name spec prog in
      Alcotest.(check bool) (name ^ " recovered") true (r.value <> None))
    (Lazy.force composite_cases);
  let name, bits, prog, input =
    List.find (fun (name, _, _, _) -> name = "caffeine/jwm-64+gwm") (Lazy.force composite_cases)
  in
  let steps = (Stackvm.Compile.run_program prog ~input).Stackvm.Interp.steps in
  List.iter
    (fun fuel ->
      let spec = Scheme.Watermarker.spec ~fuel ~key ~bits ~input () in
      ignore (check_composite_equals_members (Printf.sprintf "%s fuel %d" name fuel) spec prog))
    [ 1000; steps / 2; steps - 1 ];
  (* the engine refuses a program without [main]: each member reports its
     own failure *)
  let spec = Scheme.Watermarker.spec ~key ~bits ~input () in
  let r =
    check_composite_equals_members (name ^ " no main") spec
      { prog with Stackvm.Program.main = "absent" }
  in
  Alcotest.(check bool) "gwm's own failure detail" true
    (String.ends_with ~suffix:"gwm: lost (0 clean copies of 0 candidate windows; program failed to run)" r.detail)

(* Two fake VM schemes whose sinks count the events pushed into them and
   whose [recognize] counts its calls. *)
let counters =
  lazy
    (List.map
       (fun name ->
         let pushes = ref 0 and calls = ref 0 in
         Scheme.Registry.register
           (module struct
             let name = name

             let caps =
               {
                 Scheme.Watermarker.track = Vm;
                 max_bits = 0;
                 blind = true;
                 stealth = "-";
                 attack_surface = "-";
                 locator_passes = [];
                 locatability = 0.;
                 resilience_floor = 0.;
               }

             let nbits (s : Scheme.Watermarker.spec) = s.bits
             let embed _ _ _ = failwith "counting scheme cannot embed"
             let embed_traced = None
             let seen () = { Scheme.Watermarker.value = Some (Bignum.of_int !pushes); confidence = 1.; detail = "" }

             let recognize ?aux:_ _ _ =
               incr calls;
               seen ()

             let sink =
               Some
                 (fun _ ->
                   { Scheme.Watermarker.push = (fun _ -> incr pushes); decide = (fun () -> false); finish = seen })
           end);
         (pushes, calls))
       [ "count-a"; "count-b" ])

let test_composite_runs_once () =
  let counts = Lazy.force counters in
  let (module C : Scheme.Watermarker.WATERMARKER) = Scheme.Builtin.find_exn "count-a+count-b" in
  let _, bits, prog, input = List.hd (Lazy.force composite_cases) in
  let spec = Scheme.Watermarker.spec ~key ~bits ~input () in
  let reset () = List.iter (fun (p, c) -> p := 0; c := 0) counts in
  reset ();
  let events = Stackvm.Tracebuf.length (fst (Stackvm.Trace.record prog ~input)) in
  let r = C.recognize spec (Scheme.Watermarker.Vm_program prog) in
  List.iteri
    (fun i (pushes, calls) ->
      Alcotest.(check int) (Printf.sprintf "member %d: no recognize call" i) 0 !calls;
      Alcotest.(check int) (Printf.sprintf "member %d: every event of one run" i) events !pushes)
    counts;
  Alcotest.(check (option string)) "the members agree on the count" (Some (string_of_int events))
    (Option.map Bignum.to_string r.value);
  (* a program the engine refuses: each member recognizes on its own *)
  reset ();
  ignore (C.recognize spec (Scheme.Watermarker.Vm_program { prog with Stackvm.Program.main = "absent" }));
  List.iteri
    (fun i (pushes, calls) ->
      Alcotest.(check int) (Printf.sprintf "member %d: one recognize call" i) 1 !calls;
      Alcotest.(check int) (Printf.sprintf "member %d: nothing pushed" i) 0 !pushes)
    counts

let suite =
  [
    Alcotest.test_case "every VM workload matches the reference" `Slow test_corpus;
    Alcotest.test_case "trace fault plans match the reference" `Slow test_fault_plans;
    Alcotest.test_case "fuel-cut runs match the reference" `Quick test_fuel_cut;
    Alcotest.test_case "trapping runs match the reference" `Quick test_trapping_run;
    QCheck_alcotest.to_alcotest qcheck_matches_reference;
    Alcotest.test_case "the random streams reach every decoder path" `Quick test_generator_reaches;
    Alcotest.test_case "gwm streaming equals batch on every VM workload" `Slow test_gwm_streaming;
    Alcotest.test_case "jwm+gwm streaming equals batch on every VM workload" `Slow test_composite_streaming;
    Alcotest.test_case "jwm+gwm equals the per-member combination" `Slow test_composite_equals_members;
    Alcotest.test_case "a composite runs its members' sinks once" `Quick test_composite_runs_once;
  ]
