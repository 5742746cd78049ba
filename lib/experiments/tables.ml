type java_row = { attack : string; semantics_preserved : bool; watermark_survives : bool }

type java_table = {
  rows : java_row list;
  encryption_blocks_instrumentation : bool;
  encryption_vm_trace_survives : bool;
}

let run_java ?(bits = 128) ?(pieces = 60) () =
  let w = Workloads.Jesslite.engine in
  let input = w.Workloads.Workload.input in
  let prog = Workloads.Workload.vm_program w in
  let report =
    Jwm.Embed.embed ~seed:4242L
      {
        Jwm.Embed.passphrase = Common.passphrase;
        watermark = Common.watermark_for ~bits;
        watermark_bits = bits;
        pieces;
        input;
      }
      prog
  in
  let wm = report.Jwm.Embed.program in
  let rows =
    List.map
      (fun (attack, f) ->
        let rng = Util.Prng.create 99L in
        let attacked = f rng wm in
        let semantics_preserved =
          Stackvm.Verify.check attacked = Ok ()
          && Stackvm.Compile.equivalent_on ~fuel:2_000_000_000 wm attacked
               ~inputs:(input :: w.Workloads.Workload.alt_inputs)
        in
        let watermark_survives = Common.recognized ~bits ~input attacked in
        { attack; semantics_preserved; watermark_survives })
      Vmattacks.Attacks.all
  in
  let pkg = Vmattacks.Attacks.encrypt_package ~key:31337L wm in
  let encryption_blocks_instrumentation = Vmattacks.Attacks.static_instrument pkg = None in
  let encryption_vm_trace_survives =
    let trace = Vmattacks.Attacks.vm_trace_package pkg ~input in
    let params = Codec.Params.make ~passphrase:Common.passphrase ~watermark_bits:bits () in
    match
      (Codec.Recombine.recover_from_bitstring params (Stackvm.Trace.bitstring trace)).Codec.Recombine.value
    with
    | Some v -> Bignum.equal v (Common.watermark_for ~bits)
    | None -> false
  in
  { rows; encryption_blocks_instrumentation; encryption_vm_trace_survives }

let print_java t =
  Common.header "Table (sec 5.1.2): distortive attacks vs the Java-track watermark (jess, 128-bit, 60 pieces)";
  Common.row (Printf.sprintf "%-24s %-10s %-9s" "attack" "semantics" "watermark");
  List.iter
    (fun r ->
      Common.row
        (Printf.sprintf "%-24s %-10s %-9s" r.attack
           (if r.semantics_preserved then "preserved" else "BROKEN")
           (if r.watermark_survives then "survives" else "destroyed")))
    t.rows;
  Common.row
    (Printf.sprintf "%-24s %-10s %-9s" "program-encryption" "preserved"
       (if t.encryption_blocks_instrumentation then "destroyed (instrumenter)" else "survives"));
  Common.row
    (Printf.sprintf "%-24s %-10s %-9s" "  ...via VM tracing" "preserved"
       (if t.encryption_vm_trace_survives then "survives" else "destroyed"))

type native_verdict = {
  benchmark : string;
  breaks : bool;
  simple_tracer_fooled : bool option;
  smart_tracer_recovers : bool option;
}

type native_table = (string * native_verdict list) list

let run_native ?(bits = 64) ?(benchmarks = Workloads.Spec.all) () =
  let per_benchmark (w : Workloads.Workload.t) =
    let prog = Workloads.Workload.native_program w in
    let training_input =
      match w.Workloads.Workload.alt_inputs with t :: _ -> t | [] -> w.Workloads.Workload.input
    in
    let report =
      Nwm.Embed.embed ~seed:777L ~watermark:(Common.watermark_for ~bits) ~bits ~training_input prog
    in
    let wm = report.Nwm.Embed.binary in
    let inputs = w.Workloads.Workload.input :: w.Workloads.Workload.alt_inputs in
    (* a broken binary may spin instead of trapping: cap the attacked run at
       a small multiple of the watermarked baseline *)
    let baseline_steps =
      List.fold_left
        (fun acc input -> max acc (Nativesim.Machine.run wm ~input).Nativesim.Machine.steps)
        0 inputs
    in
    let fuel = (8 * baseline_steps) + 2_000_000 in
    let broken attacked = Nattacks.Attacks.broken ~fuel wm attacked ~inputs in
    let simple_verdicts attacked =
      let extract kind =
        Nwm.Extract.extract ~kind attacked ~begin_addr:report.Nwm.Embed.begin_addr
          ~end_addr:report.Nwm.Embed.end_addr ~input:training_input
      in
      let expected = Common.watermark_for ~bits in
      let fooled =
        match extract Nwm.Extract.Simple with
        | Ok ex -> not (Bignum.equal (Nwm.Extract.watermark ex) expected)
        | Error _ -> true
      in
      let smart =
        match extract Nwm.Extract.Smart with
        | Ok ex -> Bignum.equal (Nwm.Extract.watermark ex) expected
        | Error _ -> false
      in
      (Some fooled, Some smart)
    in
    let rng () = Util.Prng.create 5L in
    [
      ( "noop-insertion",
        let attacked = Nattacks.Attacks.noop_insertion ~rate:0.05 (rng ()) wm in
        { benchmark = w.Workloads.Workload.name; breaks = broken attacked; simple_tracer_fooled = None; smart_tracer_recovers = None } );
      ( "branch-inversion",
        let attacked = Nattacks.Attacks.branch_sense_inversion ~fraction:1.0 (rng ()) wm in
        { benchmark = w.Workloads.Workload.name; breaks = broken attacked; simple_tracer_fooled = None; smart_tracer_recovers = None } );
      ( "double-watermark",
        let attacked =
          Nattacks.Attacks.double_watermark ~seed:31L ~watermark:(Bignum.of_int 123456) ~bits:32
            ~training_input wm
        in
        { benchmark = w.Workloads.Workload.name; breaks = broken attacked; simple_tracer_fooled = None; smart_tracer_recovers = None } );
      ( "bypass",
        let attacked =
          Nattacks.Attacks.bypass (rng ()) wm ~begin_addr:report.Nwm.Embed.begin_addr
            ~end_addr:report.Nwm.Embed.end_addr ~input:training_input
        in
        { benchmark = w.Workloads.Workload.name; breaks = broken attacked; simple_tracer_fooled = None; smart_tracer_recovers = None } );
      ( "reroute",
        let attacked =
          Nattacks.Attacks.reroute (rng ()) wm ~begin_addr:report.Nwm.Embed.begin_addr
            ~end_addr:report.Nwm.Embed.end_addr ~input:training_input
        in
        let fooled, smart = simple_verdicts attacked in
        { benchmark = w.Workloads.Workload.name; breaks = broken attacked; simple_tracer_fooled = fooled; smart_tracer_recovers = smart } );
    ]
  in
  let all = List.concat_map per_benchmark benchmarks in
  let names = [ "noop-insertion"; "branch-inversion"; "double-watermark"; "bypass"; "reroute" ] in
  List.map (fun name -> (name, List.filter_map (fun (n, v) -> if n = name then Some v else None) all)) names

let print_native table =
  Common.header "Table (sec 5.2.2): native attacks vs branch-function watermarks (64-bit, all benchmarks)";
  List.iter
    (fun (attack, verdicts) ->
      let broken = List.length (List.filter (fun v -> v.breaks) verdicts) in
      let total = List.length verdicts in
      Common.row (Printf.sprintf "%-18s breaks %d/%d programs" attack broken total);
      match attack with
      | "reroute" ->
          let fooled = List.length (List.filter (fun v -> v.simple_tracer_fooled = Some true) verdicts) in
          let smart = List.length (List.filter (fun v -> v.smart_tracer_recovers = Some true) verdicts) in
          Common.row (Printf.sprintf "%-18s simple tracer fooled on %d/%d, smart tracer recovers %d/%d" "" fooled total smart total)
      | _ -> ())
    table
