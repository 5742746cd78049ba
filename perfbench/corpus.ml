(* recognize-corpus: blind recognition of suspect programs, the paper's
   product path (§3.3).

   Every VM workload appears unmarked, jwm-marked at 64 bits / 20 pieces,
   jwm-marked at 256 bits / 60 pieces and gwm-marked at 64 bits.  One
   pass recognizes each of those 72 programs once, in a seeded order; the
   marks of every pass are embedded afresh under fresh keys and
   fingerprints, and unmarked programs are recognized under fresh keys, so
   no two requests share (program bytes, key) and a result cache cannot
   turn repeats into hits.  A request starts from serialized bytes:
   [Serialize.decode], then the scheme's [recognize] through
   [Scheme.Builtin], which derives [Params.make] itself.

   Each pass's suspects are embedded just before the pass, untimed; the
   set-up builds the first pass's. *)

open Pathmark
open Common

type variant = Unmarked | Jwm64 | Jwm256 | Gwm64

let variants = [ Unmarked; Jwm64; Jwm256; Gwm64 ]

let variant_name = function
  | Unmarked -> "unmarked"
  | Jwm64 -> "jwm64"
  | Jwm256 -> "jwm256"
  | Gwm64 -> "gwm64"

(* scheme, width and redundancy of a marked variant *)
let marking = function
  | Jwm64 -> Some ("jwm", 64, 20)
  | Jwm256 -> Some ("jwm", 256, 60)
  | Gwm64 -> Some ("gwm", 64, Scheme.Watermarker.default_redundancy)
  | Unmarked -> None

(* Unmarked programs are recognized with jwm at 64 bits only.  gwm
   reports the fingerprint 0 from an unmarked program under roughly one
   key in a few hundred (vpr, Jess), and jwm at 256 bits, with 11 primes,
   occasionally finds garbage statements covering them all (crafty); either
   would make runs fail on a known defect rather than measure. *)
let unmarked_scheme = ("jwm", 64)

(* The plan: everything the seed decides, before any program is built. *)
type item = {
  pass : int;
  wl : int;  (** index into [Common.vm_workloads ()] *)
  variant : variant;
  scheme : string;
  bits : int;
  key : string;
  mark : Bignum.t option;  (** the embedded fingerprint, for marked variants *)
  embed_seed : int64;
}

let plan ~seed ~passes =
  let r = rng ~seed ~stream:1 in
  let nwl = List.length (vm_workloads ()) in
  List.concat_map
    (fun pass ->
      let items =
        Array.of_list
          (List.concat_map
             (fun wl ->
               List.map
                 (fun variant ->
                   let key = key r in
                   let embed_seed = next r in
                   match marking variant with
                   | Some (scheme, bits, _) ->
                       { pass; wl; variant; scheme; bits; key; mark = Some (fingerprint r bits); embed_seed }
                   | None ->
                       let scheme, bits = unmarked_scheme in
                       { pass; wl; variant; scheme; bits; key; mark = None; embed_seed })
                 variants)
             (List.init nwl Fun.id))
      in
      shuffle r items;
      Array.to_list items)
    (List.init passes Fun.id)

(* Warm-up requests, never timed: each workload once, unmarked, under
   keys of their own. *)
let warmup_plan ~seed =
  let r = rng ~seed ~stream:2 in
  List.mapi
    (fun wl _ ->
      { pass = -1; wl; variant = Unmarked; scheme = "jwm"; bits = 64; key = key r; mark = None; embed_seed = 0L })
    (vm_workloads ())

(* requests of one class differ only in key, fingerprint and embedding *)
let class_of (i : item) = Printf.sprintf "%d/%s" i.wl (variant_name i.variant)

let describe (i : item) =
  Printf.sprintf "%d %d %s %s %d %s %s %Ld" i.pass i.wl (variant_name i.variant) i.scheme i.bits i.key
    (match i.mark with Some m -> Bignum.to_string m | None -> "-")
    i.embed_seed

type op = {
  id : int;
  item : item;
  input : int list;
  bytes : string;  (** the suspect program, serialized *)
}

let scheme name = Scheme.Builtin.find_exn name

(* Build the suspect programs of numbered plan items: embed the marked
   variants into the compiled hosts through the scheme registry,
   serialize. *)
let materialize ~hosts items =
  let wls = Array.of_list (vm_workloads ()) in
  let host_bytes = Array.map Stackvm.Serialize.encode hosts in
  List.map
    (fun (id, (it : item)) ->
      let w = wls.(it.wl) in
      let input = w.Workloads.Workload.input in
      let bytes =
        match (marking it.variant, it.mark) with
        | Some (name, bits, redundancy), Some mark ->
            let (module W : Scheme.Watermarker.WATERMARKER) = scheme name in
            let spec =
              Scheme.Watermarker.spec ~seed:it.embed_seed ~redundancy ~key:it.key ~bits ~input ()
            in
            (match (W.embed mark spec (Scheme.Watermarker.Vm_program hosts.(it.wl))).carrier with
            | Scheme.Watermarker.Vm_program p -> Stackvm.Serialize.encode p
            | _ -> failwith "VM scheme returned a non-VM carrier")
        | _ -> host_bytes.(it.wl)
      in
      { id; item = it; input; bytes })
    items

let digest ops =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map (fun o -> describe o.item ^ " " ^ Digest.to_hex (Digest.string o.bytes)) ops)))

(* The untraced request: decode, then the scheme's own recognize. *)
let scheme_call (o : op) =
  let (module W : Scheme.Watermarker.WATERMARKER) = scheme o.item.scheme in
  let prog = Stackvm.Serialize.decode o.bytes in
  let spec = Scheme.Watermarker.spec ~key:o.item.key ~bits:o.item.bits ~input:o.input () in
  W.recognize spec (Scheme.Watermarker.Vm_program prog)

let recognize o = (scheme_call o).Scheme.Watermarker.value

let attempt f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* ---- the traced request: the scheme's chain of public calls ---- *)

type chain = {
  value : Bignum.t option;
  confidence : float;
  jwm_report : Codec.Recombine.report option;
  gwm_outcome : Gwm.Recognize.outcome option;
}

let windows (params : Codec.Params.t) nbits =
  List.fold_left (fun acc stride -> acc + max 0 (nbits - ((params.block_bits - 1) * stride))) 0 [ 1; 2 ]

let traced (o : op) =
  let it = o.item in
  Spans.operation o.id (fun () ->
      let prog = Spans.span "stackvm.serialize.decode" (fun () -> Stackvm.Serialize.decode o.bytes) in
      match it.scheme with
      | "jwm" ->
          let params =
            Spans.span "codec.params.make" (fun () ->
                Codec.Params.make ~passphrase:it.key ~watermark_bits:it.bits ())
          in
          let code = Spans.span "stackvm.compile.of_program" (fun () -> Stackvm.Compile.of_program prog) in
          let events = Stackvm.Tracebuf.create ~capacity:65536 () in
          ignore
            (Spans.span "stackvm.compile.run" (fun () ->
                 Stackvm.Compile.run ~trace:events ~fuel:recognize_fuel code ~input:o.input));
          let bits = Spans.span "stackvm.trace.bits" (fun () -> Stackvm.Trace.bits_of_buf events) in
          let stmts =
            Spans.span "codec.harvest" (fun () -> Codec.Recombine.harvest params bits ~strides:[ 1; 2 ])
          in
          let report = Spans.span "codec.recover" (fun () -> Codec.Recombine.recover params stmts) in
          let confidence = Codec.Recombine.confidence params report in
          let nwin = windows params (Util.Bitstring.length bits) in
          Spans.count "stackvm.trace.events" (float_of_int (Stackvm.Tracebuf.length events));
          Spans.count "codec.harvest.windows" (float_of_int nwin);
          Spans.count "codec.harvest.statements" (float_of_int (List.length stmts));
          Spans.count "codec.recover.distinct" (float_of_int report.distinct);
          Spans.count "codec.recover.after_vote" (float_of_int report.after_vote);
          Spans.count "codec.recover.dropped_by_greedy" (float_of_int report.dropped_by_greedy);
          Spans.count "codec.recover.used" (float_of_int (List.length report.used));
          ( { value = report.value; confidence; jwm_report = Some report; gwm_outcome = None },
            Some (params, report) )
      | _ ->
          let trace =
            Spans.span "stackvm.trace.capture" (fun () ->
                Stackvm.Trace.capture ~fuel:recognize_fuel ~want_snapshots:false prog ~input:o.input)
          in
          let events = Array.to_list trace.Stackvm.Trace.branches in
          let g =
            Spans.span "gwm.recognize_branches" (fun () ->
                Gwm.Recognize.recognize_branches ~passphrase:it.key ~watermark_bits:it.bits events)
          in
          Spans.count "stackvm.trace.events" (float_of_int (Array.length trace.Stackvm.Trace.branches));
          Spans.count "gwm.candidates" (float_of_int g.candidates);
          Spans.count "gwm.copies_found" (float_of_int g.copies_found);
          ( {
              value = g.value;
              confidence = g.confidence;
              jwm_report = None;
              gwm_outcome = Some { g with steps = trace.Stackvm.Trace.result.Stackvm.Interp.steps };
            },
            None ))

(* The Generalized CRT inside [recover], replayed on its own from outside
   the operation's tree so its share can be read separately. *)
let replay_gcrt (params, (report : Codec.Recombine.report)) =
  if report.covered then
    ignore
      (Spans.span "numtheory.gcrt" (fun () ->
           Numtheory.Gcrt.solve (List.map (Codec.Statement.to_congruence params) report.used)))

let same_report (a : Codec.Recombine.report) (b : Codec.Recombine.report) =
  a.candidates = b.candidates && a.distinct = b.distinct && a.after_vote = b.after_vote
  && a.dropped_by_greedy = b.dropped_by_greedy
  && List.length a.used = List.length b.used
  && List.for_all2 Codec.Statement.equal a.used b.used
  && a.covered = b.covered
  && same_option Bignum.equal a.value b.value

(* Decomposition check: the chain must answer exactly as the scheme does
   (value and confidence of [r], the registry's answer to the same
   request, and the full recombination report or gwm outcome through the
   scheme's module). *)
let decomposes (o : op) (c : chain) (r : Scheme.Watermarker.recovered) =
  let it = o.item in
  let prog = Stackvm.Serialize.decode o.bytes in
  same_option Bignum.equal r.value c.value
  && r.confidence = c.confidence
  &&
  match (c.jwm_report, c.gwm_outcome) with
  | Some rep, _ ->
      let j = Jwm.Recognize.recognize ~passphrase:it.key ~watermark_bits:it.bits ~input:o.input prog in
      same_report j.report rep
  | None, Some g ->
      let g' = Gwm.Recognize.recognize ~passphrase:it.key ~watermark_bits:it.bits ~input:o.input prog in
      same_option Bignum.equal g.value g'.value
      && g.confidence = g'.confidence && g.candidates = g'.candidates && g.copies_found = g'.copies_found
      && g.trace_branches = g'.trace_branches && g.steps = g'.steps
  | None, None -> false

(* --seconds per pass: five passes at the default 15 s; a pass takes 3 to
   5.5 s on the machine the benchmark was tuned on *)
let nominal_pass_s = 3.0

let passes_of seconds = max 3 (int_of_float (Float.round (seconds /. nominal_pass_s)))
let plan_text ~seed ~seconds = String.concat "\n" (List.map describe (plan ~seed ~passes:(passes_of seconds)))

let run ~seed ~seconds ~trace ~setups =
  let passes = passes_of seconds in
  let t = tally () in
  let numbered = List.mapi (fun id it -> (id, it)) (plan ~seed ~passes) in
  let pass_items p = List.filter (fun (_, (it : item)) -> it.pass = p) numbered in
  let warm_items = List.mapi (fun i it -> (-1 - i, it)) (warmup_plan ~seed) in
  (* set-up: compile the hosts, build the warm-up and first-pass suspects,
     up to the first correct answer *)
  let setup () =
    let hosts = Array.of_list (List.map compile (vm_workloads ())) in
    let warm = materialize ~hosts warm_items and first = materialize ~hosts (pass_items 0) in
    let ok = answer_ok ~expected:None (attempt (fun () -> recognize (List.hd warm))) in
    (hosts, warm, first, ok)
  in
  let setup_runs = ref [] in
  let timed_setup () =
    settle ();
    let ((_, _, first, ok) as v), ms = time setup in
    setup_runs := (ms, ok, digest first) :: !setup_runs;
    v
  in
  let hosts, warm, first, _ = timed_setup () in
  List.iter (fun o -> ignore (attempt (fun () -> recognize o))) warm;
  let wls = Array.of_list (vm_workloads ()) in
  let host_cost = Array.mapi (fun i h -> profile h ~input:wls.(i).Workloads.Workload.input) hosts in
  let pairs = Hashtbl.create 512 and digests = Buffer.create 1024 in
  let samples = ref [] and marked = ref [] and unmarked = ref [] in
  let sizes = ref [] and steps = ref [] and preserved = ref true in
  let sample = ref 0 and agree = ref 0 in
  (* the peak memory of each pass's timed requests; their median is the
     figure, so the set-up's and the garbage collector's timing stay out *)
  let pass_peaks = ref [] in
  Spans.reset ();
  for p = 0 to passes - 1 do
    for _ = 1 to setups_before_pass ~setups ~passes p do
      ignore (timed_setup ())
    done;
    let ops = if p = 0 then first else materialize ~hosts (pass_items p) in
    List.iter (fun o -> Hashtbl.replace pairs (Digest.string o.bytes, o.item.key) ()) ops;
    Buffer.add_string digests (digest ops);
    settle ();
    reset_peak "self";
    List.iter
      (fun o ->
        let got, ms = time (fun () -> attempt (fun () -> recognize o)) in
        let before = failed t in
        judge t ~expected:o.item.mark got;
        if failed t > before then
          prerr_endline
            (Printf.sprintf "failed request %d: %s -> %s" o.id (describe o.item)
               (match got with Ok (Some v) -> Bignum.to_string v | Ok None -> "none" | Error e -> e));
        samples := (class_of o.item, ms) :: !samples;
        if o.item.mark = None then unmarked := ms :: !unmarked else marked := ms :: !marked)
      ops;
    pass_peaks := proc_status_kb "self" "VmHWM" :: !pass_peaks;
    (* untimed: every marked program computes what its host computes; its
       size and steps against the host are the Fig. 8 costs *)
    List.iter
      (fun o ->
        if o.item.mark <> None then
          match costs ~host:host_cost.(o.item.wl) ~input:o.input (Stackvm.Serialize.decode o.bytes) with
          | Some (size, step) ->
              sizes := (class_of o.item, size) :: !sizes;
              steps := (class_of o.item, step) :: !steps
          | None -> preserved := false)
      ops;
    (* the traced replay of the same pass *)
    if trace then begin
      settle ();
      List.iter
        (fun o ->
          (* the scheme's own call on the same request, in a span of its
             own: what the chain's stages do not cover of it is the
             unattributed time.  It runs before the chain on odd requests
             and after it on even ones, so neither side always finds the
             caches warmed by the other. *)
          let call () = Spans.operation ~name:"scheme.recognize" o.id (fun () -> scheme_call o) in
          match
            if o.id mod 2 = 1 then
              let r = call () in
              (traced o, r)
            else
              let c = traced o in
              (c, call ())
          with
          | (c, gcrt), r ->
              Option.iter replay_gcrt gcrt;
              if o.id mod 8 = 0 then begin
                incr sample;
                if decomposes o c r then incr agree
              end
          | exception e ->
              prerr_endline ("traced request failed: " ^ Printexc.to_string e);
              t.errors <- t.errors + 1)
        ops
    end
  done;
  let peak_rss = mb_of_kb (median !pass_peaks) in
  let setup_s = median (List.map (fun (ms, _, _) -> ms /. 1000.0) !setup_runs) in
  check t "setup.first_answer_correct" (List.for_all (fun (_, ok, _) -> ok) !setup_runs);
  check t "setup.byte_identical" (List.for_all (fun (_, _, d) -> d = digest first) !setup_runs);
  let nops = List.length !samples in
  check t "ops.no_repeated_bytes_key" (Hashtbl.length pairs = nops);
  check t "marked.outputs_match_host" !preserved;
  (* A class meets once per pass, five times in a default run: its lower
     quartile would be one of its two fastest requests, as noisy as the
     machine.  The figures run over every request instead; p90 then has
     a tenth of several hundred requests beyond it. *)
  let e2e =
    pooled_latency_metrics !samples
    @ [ metric "setup_s" "s" setup_s; metric "peak_rss_mb" "MB" peak_rss ]
    @ cost_metrics ~sizes:!sizes ~steps:!steps
  in
  let info =
    [
      ("passes", string_of_int passes);
      ("requests_marked", string_of_int (List.length !marked));
      ("requests_unmarked", string_of_int (List.length !unmarked));
      ("setups", string_of_int setups);
      ("op_list_digest", Digest.to_hex (Digest.string (Buffer.contents digests)));
    ]
    @ raw_latency_info !samples
  in
  if not trace then { tally = t; metrics = e2e; info; samples = List.rev !samples }
  else begin
    check t "trace.decomposition_matches_scheme" (!sample > 0 && !agree = !sample);
    let a = Spans.analyse () in
    check t "trace.self_times_sum_to_span" a.consistent;
    let untraced_ms = sum (List.map snd !samples) in
    let traced_ms = Spans.get a.total_ms "op" in
    let n = float_of_int nops in
    let per_op name = Spans.get a.self_ms name /. n in
    let c name = Spans.counter name in
    let ratio x y = if y = 0.0 then 0.0 else x /. y in
    let layer =
      List.map
        (fun name -> metric (name ^ ".ms") "ms" (per_op name))
        [
          "stackvm.serialize.decode";
          "codec.params.make";
          "stackvm.compile.of_program";
          "stackvm.compile.run";
          "stackvm.trace.bits";
          "codec.harvest";
          "codec.recover";
          "stackvm.trace.capture";
          "gwm.recognize_branches";
          "numtheory.gcrt";
        ]
      @ [
          metric "stackvm.trace.events" "count" (c "stackvm.trace.events" /. n);
          metric "codec.harvest.windows" "count" (c "codec.harvest.windows" /. n);
          metric "codec.harvest.statements" "count" (c "codec.harvest.statements" /. n);
          metric "codec.harvest.yield" "ratio" (ratio (c "codec.harvest.statements") (c "codec.harvest.windows"));
          metric "codec.recover.distinct" "count" (c "codec.recover.distinct" /. n);
          metric "codec.recover.after_vote" "count" (c "codec.recover.after_vote" /. n);
          metric "codec.recover.dropped_by_greedy" "count" (c "codec.recover.dropped_by_greedy" /. n);
          metric "codec.recover.keep_ratio" "ratio" (ratio (c "codec.recover.used") (c "codec.recover.after_vote"));
          metric "gwm.candidates" "count" (c "gwm.candidates" /. n);
          metric "gwm.copies_found" "count" (c "gwm.copies_found" /. n);
          metric "recognize.marked.ms_p50" "ms" (median !marked);
          metric "recognize.unmarked.ms_p50" "ms" (median !unmarked);
          metric "unattributed.ms" "ms"
            ((Spans.get a.total_ms "scheme.recognize" -. (traced_ms -. Spans.get a.self_ms "op")) /. n);
          metric "tracing.overhead_pct" "%" (100.0 *. ((traced_ms /. untraced_ms) -. 1.0));
        ]
    in
    { tally = t; metrics = layer; info = info @ [ ("decomposition_sample", string_of_int !sample) ]; samples = List.rev !samples }
  end
