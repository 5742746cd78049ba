(* ABL-FI: error tolerance under deterministic fault injection (lib/fault).

   Section 3.2 argues the CRT-redundant piece encoding tolerates partial
   destruction of the trace; this experiment measures the claim.  Per
   workload:

   - VM track: embed, capture the branch-event stream once, then sweep a
     trace-flip noise rate — every recorded branch decision flips with
     probability [rate] — and recognize offline from the corrupted
     stream.  Recognition rate and mean confidence come from
     [Jwm.Recognize]'s degraded-mode outcome.
   - native track: embed, observe the single-step window once (execution
     is deterministic), then garble each observed stack-top value with
     probability [rate] independently in [passes] views and majority-vote
     them with [Nwm.Extract.vote].

   The [tolerated] column is the largest swept rate below which every
   trial still recovered the exact fingerprint. *)

type cell = { rate : float; recognized : int; trials : int; mean_confidence : float }

type row = { workload : string; cells : cell list; tolerated : float }

type t = { rates : float list; trials : int; passes : int; vm : row list; native : row list }

let vm_bits = 64
let native_bits = 24
let default_rates = [ 0.0; 0.001; 0.002; 0.005; 0.01; 0.02; 0.05 ]

(* largest rate such that every rate up to it recognized on all trials *)
let tolerated cells =
  let rec go acc = function
    | [] -> acc
    | c :: rest -> if c.recognized = c.trials then go c.rate rest else acc
  in
  go 0.0 cells

let mean xs = match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let make_row ~workload ~rates ~trials run_trial =
  let cells =
    List.map
      (fun rate ->
        let outcomes = List.init trials (fun trial -> run_trial ~rate ~trial) in
        {
          rate;
          recognized = List.length (List.filter fst outcomes);
          trials;
          mean_confidence = mean (List.map snd outcomes);
        })
      rates
  in
  { workload; cells; tolerated = tolerated cells }

let vm_case ~rates ~trials (w : Workloads.Workload.t) =
  let prog = Workloads.Workload.vm_program w in
  let input = w.Workloads.Workload.input in
  let params = Codec.Params.make ~passphrase:Common.passphrase ~watermark_bits:vm_bits () in
  let mark = Common.watermark_for ~bits:vm_bits in
  let spec =
    {
      Jwm.Embed.passphrase = Common.passphrase;
      watermark = mark;
      watermark_bits = vm_bits;
      pieces = Codec.Params.pair_count params + 8;
      input;
    }
  in
  let marked = (Jwm.Embed.embed ~seed:0xAB15AL spec prog).Jwm.Embed.program in
  let events, _ = Stackvm.Trace.record ~fuel:2_000_000_000 marked ~input in
  make_row ~workload:w.Workloads.Workload.name ~rates ~trials (fun ~rate ~trial ->
      let plan = Fault.Inject.make ~seed:(Int64.of_int (0xF1A + trial)) [ Fault.Spec.Trace_flip rate ] in
      let noisy, _ =
        Fault.Inject.branches plan ~salt:(Printf.sprintf "%s:vm:%d" w.Workloads.Workload.name trial) events
      in
      let o = Jwm.Recognize.recognize_buf ~passphrase:Common.passphrase ~watermark_bits:vm_bits noisy in
      let ok = match o.Jwm.Recognize.value with Some v -> Bignum.equal v mark | None -> false in
      (ok, o.Jwm.Recognize.partial.Jwm.Recognize.confidence))

let native_case ~rates ~trials ~passes (w : Workloads.Workload.t) =
  let prog = Workloads.Workload.native_program w in
  let input = w.Workloads.Workload.input in
  let mark = Common.watermark_for ~bits:native_bits in
  let r = Nwm.Embed.embed ~seed:0xAB15AL ~watermark:mark ~bits:native_bits ~training_input:input prog in
  let bin = r.Nwm.Embed.binary in
  let steps =
    Nwm.Extract.observe bin ~begin_addr:r.Nwm.Embed.begin_addr ~end_addr:r.Nwm.Embed.end_addr ~input
  in
  make_row ~workload:w.Workloads.Workload.name ~rates ~trials (fun ~rate ~trial ->
      let plan = Fault.Inject.make ~seed:(Int64.of_int (0xFA11 + trial)) [ Fault.Spec.Obs_garble rate ] in
      let view pass =
        match
          Fault.Inject.garble plan
            ~salt:(Printf.sprintf "%s:native:%d:%d" w.Workloads.Workload.name trial pass)
        with
        | None -> steps
        | Some g ->
            List.map (fun (s : Nwm.Extract.step) -> { s with Nwm.Extract.s_stack_top = g s.Nwm.Extract.s_stack_top }) steps
      in
      let d = Nwm.Extract.vote bin (List.init passes view) in
      let ok = match d.Nwm.Extract.value with Some v -> Bignum.equal v mark | None -> false in
      (ok, d.Nwm.Extract.confidence))

let default_workloads () =
  Workloads.Spec.all @ [ Workloads.Caffeine.suite; Workloads.Jesslite.engine ]

let run ?(rates = default_rates) ?(trials = 3) ?(passes = 5) ?workloads () =
  let ws = match workloads with Some ws -> ws | None -> default_workloads () in
  {
    rates;
    trials;
    passes;
    vm = List.map (vm_case ~rates ~trials) ws;
    native = List.map (native_case ~rates ~trials ~passes) ws;
  }

let print_track title rows =
  Common.row title;
  match rows with
  | [] -> ()
  | first :: _ ->
      Common.row
        (Printf.sprintf "%-10s %-10s %s %10s" "workload" "metric"
           (String.concat " " (List.map (fun c -> Printf.sprintf "%6.3f" c.rate) first.cells))
           "tolerated");
      List.iter
        (fun r ->
          Common.row
            (Printf.sprintf "%-10s %-10s %s %10.3f" r.workload "recognized"
               (String.concat " "
                  (List.map
                     (fun c -> Printf.sprintf "%6.2f" (float_of_int c.recognized /. float_of_int c.trials))
                     r.cells))
               r.tolerated);
          Common.row
            (Printf.sprintf "%-10s %-10s %s" "" "confidence"
               (String.concat " " (List.map (fun c -> Printf.sprintf "%6.2f" c.mean_confidence) r.cells))))
        rows

let print t =
  Common.header "ABL-FI: recognition under deterministic fault injection (lib/fault)";
  print_track
    (Printf.sprintf "VM track (trace-flip noise on the branch stream; %d trials/rate)" t.trials)
    t.vm;
  Common.row "";
  print_track
    (Printf.sprintf "native track (obs-garble on the tracer; %d-pass majority vote, %d trials/rate)"
       t.passes t.trials)
    t.native;
  Common.row "";
  let min_tol rows = List.fold_left (fun acc r -> Float.min acc r.tolerated) infinity rows in
  Common.row
    (Printf.sprintf "every workload tolerates trace noise up to: vm >= %.3f, native >= %.3f"
       (min_tol t.vm) (min_tol t.native))
