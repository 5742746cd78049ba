(* The pathmark command-line tool: embed, recognize, attack and inspect
   watermarked programs on both tracks, and regenerate the paper's
   experiments. *)

open Cmdliner

(* Unified exit codes (documented in README).  0 = success, 1 = generic
   failure, 2 = nothing to do / bad selection, 3 = recognition failed
   (no watermark, or not the expected one), 4 = fault-injection abort
   (the injected faults destroyed the artifact), 5 = store corruption,
   6 = unknown watermarking scheme name, 7 = analysis findings (the
   analyzer or audit gate surfaced diagnostics — distinct from 1 so CI
   can tell "the linter found something" from "the linter crashed"),
   8 = service unavailable (could not reach, or lost, a pathmark server
   within the deadline — retryable, unlike 1).
   Cmdliner owns 124-125 and its own usage errors. *)
let exit_recognition_failed = 3
let exit_fault_abort = 4
let exit_store_corruption = 5
let exit_unknown_scheme = 6
let exit_analysis_findings = 7
let exit_service_unavailable = 8

let or_store_corruption f =
  try f ()
  with Store.Registry.Corrupt msg | Store.Journal.Corrupt msg ->
    Printf.eprintf "store corruption: %s\n" msg;
    exit exit_store_corruption

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* ---- argument converters ----

   Proper Cmdliner convs so a malformed value is a usage error, not a
   [failwith] backtrace. *)

let int_list_conv =
  let parse s =
    if String.trim s = "" then Ok []
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
            match int_of_string_opt (String.trim x) with
            | Some v -> go (v :: acc) rest
            | None ->
                Error (`Msg (Printf.sprintf "invalid element %S (expected comma-separated integers)" x)))
      in
      go [] (String.split_on_char ',' s)
  in
  let print ppf l = Format.pp_print_string ppf (String.concat "," (List.map string_of_int l)) in
  Arg.conv ~docv:"I1,I2,..." (parse, print)

let bignum_conv =
  let parse s =
    match Bignum.of_string (String.trim s) with
    | w -> Ok w
    | exception _ -> Error (`Msg (Printf.sprintf "invalid watermark value %S (expected a decimal integer)" s))
  in
  Arg.conv ~docv:"W" (parse, Bignum.pp)

let bignum_list_conv =
  let parse s =
    if String.trim s = "" then Ok []
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
            match Bignum.of_string (String.trim x) with
            | w -> go (w :: acc) rest
            | exception _ ->
                Error (`Msg (Printf.sprintf "invalid fingerprint %S (expected a decimal integer)" x)))
      in
      go [] (String.split_on_char ',' s)
  in
  let print ppf l =
    Format.pp_print_string ppf (String.concat "," (List.map Bignum.to_string l))
  in
  Arg.conv ~docv:"W1,W2,..." (parse, print)

(* ---- common options ---- *)

let key_t =
  Arg.(value & opt string "pathmark-default-key" & info [ "key" ] ~docv:"KEY" ~doc:"Watermark passphrase (secret).")

let bits_t = Arg.(value & opt int 128 & info [ "bits" ] ~docv:"N" ~doc:"Watermark width in bits.")

let input_t =
  Arg.(value & opt int_list_conv [] & info [ "input" ] ~docv:"I1,I2,..." ~doc:"Secret input sequence (comma-separated integers).")

let mark_t =
  Arg.(value & opt bignum_conv (Bignum.of_string "123456789123456789") & info [ "mark" ] ~docv:"W" ~doc:"Watermark value (decimal).")

let out_t = Arg.(value & opt string "out.bin" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")

let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic randomness seed.")

(* ---- scheme selection (lib/scheme) ---- *)

let scheme_t =
  Arg.(
    value
    & opt string "jwm"
    & info [ "scheme" ] ~docv:"NAME"
        ~doc:"Watermarking scheme by registry name (see $(b,pathmark schemes)); '+'-joined names compose, e.g. jwm+gwm.")

let resolve_scheme name =
  match Scheme.Builtin.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown scheme %s; registered: %s (compose same-track schemes with '+')\n" name
        (String.concat " " (Scheme.Builtin.names ()));
      exit exit_unknown_scheme

let require_vm_scheme name =
  let (module W) = resolve_scheme name in
  if W.caps.Scheme.Watermarker.track <> Scheme.Watermarker.Vm then begin
    Printf.eprintf "scheme %s does not run on the VM track\n" name;
    exit 1
  end;
  (module W : Scheme.Watermarker.WATERMARKER)

(* ---- fault injection (lib/fault) ---- *)

let inject_conv =
  let parse s = match Fault.Spec.parse_list s with Ok specs -> Ok specs | Error e -> Error (`Msg e) in
  let print ppf specs =
    Format.pp_print_string ppf (String.concat "," (List.map Fault.Spec.to_string specs))
  in
  Arg.conv ~docv:"NAME=RATE,..." (parse, print)

let inject_t =
  Arg.(
    value
    & opt inject_conv []
    & info [ "inject" ] ~docv:"NAME=RATE,..."
        ~doc:"Deterministic fault-injection plan, e.g. trace-noise=0.01 (see $(b,pathmark faults)).")

let fault_seed_t =
  Arg.(
    value
    & opt int 1
    & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Seed for the fault-injection PRNG substreams.")

let plan_of specs fault_seed = Fault.Inject.make ~seed:(Int64.of_int fault_seed) specs

let streaming_t =
  Arg.(
    value & flag
    & info [ "streaming" ]
        ~doc:
          "Recognize in streaming mode: branch events fold into the recognizer as the program \
           runs, and the run stops early once the mark's redundancy margin clears the confidence \
           target.")

(* The offline fault path recognize and recognize-trace share: read the
   artifact and corrupt its bytes under [plan], then hand back the trace
   stage, which corrupts a captured branch trace and accounts for both
   stages in one line. *)
let offline_faults plan path =
  let bytes = read_file path in
  let bytes, artifact_faults =
    if Fault.Inject.is_empty plan then (bytes, 0)
    else Fault.Inject.artifact plan ~salt:("artifact:" ^ Filename.basename path) bytes
  in
  let inject_trace events =
    let events, trace_faults =
      if Fault.Inject.is_empty plan then (events, 0) else Fault.Inject.branches plan ~salt:"trace" events
    in
    if artifact_faults > 0 || trace_faults > 0 then
      Printf.printf "injected %d artifact fault(s), %d trace fault(s) [%s]\n" artifact_faults trace_faults
        (Fault.Inject.describe plan);
    events
  in
  (bytes, artifact_faults, inject_trace)

let report_recovered (o : Scheme.Watermarker.recovered) =
  Printf.printf "confidence %.3f\n" o.Scheme.Watermarker.confidence;
  Printf.printf "detail: %s\n" o.Scheme.Watermarker.detail;
  match o.Scheme.Watermarker.value with
  | Some w -> Printf.printf "fingerprint: %s\n" (Bignum.to_string w)
  | None ->
      Printf.printf "no watermark recovered\n";
      exit exit_recognition_failed

(* ---- VM track ---- *)

(* A file that does not decode is an operational error: one line with the
   decoder's reason, exit 1. *)
let decode_file what decode path =
  match decode (read_file path) with
  | v -> v
  | exception Failure reason ->
      Printf.eprintf "%s: not a valid %s (%s)\n" path what reason;
      exit 1

let load_vm = decode_file "VM program" Stackvm.Serialize.decode

let vm_path_t =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"Serialized VM program.")

let run_vm path input =
  let r = Stackvm.Compile.run_program (load_vm path) ~input in
  List.iter (Printf.printf "%d\n") r.Stackvm.Interp.outputs;
  match r.Stackvm.Interp.outcome with
  | Stackvm.Interp.Finished v -> Printf.printf "finished: %d (%d steps)\n" v r.Stackvm.Interp.steps
  | Stackvm.Interp.Trapped { reason; _ } ->
      Printf.printf "trapped: %s\n" reason;
      exit 1
  | Stackvm.Interp.Out_of_fuel ->
      Printf.printf "out of fuel\n";
      exit 1

let run_vm_cmd =
  Cmd.v
    (Cmd.info "run-vm" ~doc:"Execute a serialized VM program.")
    Term.(const run_vm $ vm_path_t $ input_t)

let attack_vm path name out seed =
  match List.assoc_opt name Vmattacks.Attacks.all with
  | None ->
      Printf.printf "unknown attack %s; available:\n" name;
      List.iter (fun (n, _) -> Printf.printf "  %s\n" n) Vmattacks.Attacks.all;
      exit 1
  | Some attack ->
      let prog = load_vm path in
      let attacked = attack (Util.Prng.create (Int64.of_int seed)) prog in
      write_file out (Stackvm.Serialize.encode attacked);
      Printf.printf "applied %s: %s -> %s\n" name path out

let attack_vm_cmd =
  let attack_name = Arg.(required & pos 1 (some string) None & info [] ~docv:"ATTACK" ~doc:"Attack name (see list-attacks).") in
  Cmd.v
    (Cmd.info "attack-vm" ~doc:"Apply a distortive attack to a VM program.")
    Term.(const attack_vm $ vm_path_t $ attack_name $ out_t $ seed_t)

(* the names the tournament accepts; identity is its no-attack baseline,
   and attack-vm applies every other bytecode-track name *)
let list_attacks () =
  let print header names =
    Printf.printf "%s\n" header;
    List.iter (Printf.printf "  %s\n") names
  in
  print "bytecode-track attacks:" (Scheme.Track.attack_names Scheme.Watermarker.Vm);
  print "native-track attacks:" (Scheme.Track.attack_names Scheme.Watermarker.Native)

let list_attacks_cmd =
  Cmd.v
    (Cmd.info "list-attacks"
       ~doc:"List the attack names $(b,tournament --attack) accepts (bytecode-track ones other than identity also work with $(b,attack-vm)).")
    Term.(const list_attacks $ const ())

let faults () =
  Printf.printf "deterministic fault injection (pass --inject NAME=RATE[,NAME=RATE...] --fault-seed N):\n";
  List.iter (fun (name, doc) -> Printf.printf "  %-13s %s\n" name doc) Fault.Spec.all_names

let faults_cmd =
  Cmd.v
    (Cmd.info "faults" ~doc:"List the fault-injection spec names accepted by --inject.")
    Term.(const faults $ const ())

let trace_vm path input out =
  let prog = load_vm path in
  let events, result = Stackvm.Trace.record prog ~input in
  let bits = Stackvm.Trace.bits_of_buf events in
  write_file out (Stackvm.Trace.save_events events);
  Printf.printf "traced %d branch events (%d instructions executed) -> %s\n"
    (Stackvm.Tracebuf.length events) result.Stackvm.Interp.steps out;
  Printf.printf "bit-string prefix: %s...\n"
    (let s = Util.Bitstring.to_string bits in
     String.sub s 0 (min 64 (String.length s)))

let trace_vm_cmd =
  Cmd.v
    (Cmd.info "trace-vm" ~doc:"Trace a VM program on an input and save the branch events.")
    Term.(const trace_vm $ vm_path_t $ input_t $ out_t)

let recognize_trace path scheme_name key bits inject fault_seed =
  let (module W) = resolve_scheme scheme_name in
  let sink =
    match W.sink with
    | Some mk -> mk
    | None ->
        Printf.printf "scheme %s cannot recognize from a saved trace\n" W.name;
        exit 1
  in
  let raw, _, inject_trace = offline_faults (plan_of inject fault_seed) path in
  let events, salvage = Stackvm.Trace.salvage_events raw in
  Option.iter (Printf.printf "trace salvage: %s\n") salvage;
  report_recovered
    (Scheme.Watermarker.recognize_events sink
       (Scheme.Watermarker.spec ~key ~bits ~input:[] ())
       (inject_trace events))

let recognize_trace_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Saved trace file.") in
  Cmd.v
    (Cmd.info "recognize-trace"
       ~doc:"Recognize a watermark from a saved trace file (offline), under any scheme that recognizes from a bare branch trace.")
    Term.(const recognize_trace $ path $ scheme_t $ key_t $ bits_t $ inject_t $ fault_seed_t)

(* ---- generic scheme commands (lib/scheme registry) ---- *)

let schemes () =
  Scheme.Builtin.ensure ();
  List.iter
    (fun (module W : Scheme.Watermarker.WATERMARKER) ->
      let c = W.caps in
      Printf.printf "%-4s track=%-6s max_bits=%-9s blind=%b locatability=%.2f resilience_floor=%.2f\n"
        W.name
        (Scheme.Watermarker.track_to_string c.Scheme.Watermarker.track)
        (if c.Scheme.Watermarker.max_bits = 0 then "unbounded"
         else string_of_int c.Scheme.Watermarker.max_bits)
        c.Scheme.Watermarker.blind c.Scheme.Watermarker.locatability
        c.Scheme.Watermarker.resilience_floor;
      Printf.printf "     stealth: %s\n" c.Scheme.Watermarker.stealth;
      Printf.printf "     attacks: %s\n" c.Scheme.Watermarker.attack_surface)
    (Scheme.Builtin.all ());
  Printf.printf "compose same-track schemes with '+', e.g. --scheme jwm+gwm\n"

let schemes_cmd =
  Cmd.v
    (Cmd.info "schemes" ~doc:"List the registered watermarking schemes and their capability metadata.")
    Term.(const schemes $ const ())

let embed_generic source scheme_name key mark bits redundancy input out aux_out seed =
  let (module W) = resolve_scheme scheme_name in
  let carrier = Scheme.Track.compile W.caps.Scheme.Watermarker.track (read_file source) in
  let spec =
    Scheme.Watermarker.spec ~seed:(Int64.of_int seed) ~redundancy ~key ~bits ~input ()
  in
  let e = W.embed mark spec carrier in
  write_file out (Scheme.Track.encode e.Scheme.Watermarker.carrier);
  Printf.printf "embedded %d-bit watermark under scheme %s into %s -> %s (%d -> %d bytes)\n" bits
    W.name source out e.Scheme.Watermarker.bytes_before e.Scheme.Watermarker.bytes_after;
  Printf.printf "detail: %s\n" e.Scheme.Watermarker.detail;
  if e.Scheme.Watermarker.aux <> "" then begin
    match aux_out with
    | Some f ->
        write_file f e.Scheme.Watermarker.aux;
        Printf.printf "aux -> %s (required for recognition)\n" f
    | None -> Printf.printf "aux: %s (pass back via --aux when recognizing)\n" e.Scheme.Watermarker.aux
  end

let embed_cmd =
  let source = Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE.mc" ~doc:"MiniC source file.") in
  let redundancy =
    Arg.(value & opt int 40 & info [ "redundancy" ] ~docv:"N" ~doc:"Redundant copies/pieces to insert (Jwm pieces, Gwm trace repetitions).")
  in
  let aux_out =
    Arg.(value & opt (some string) None & info [ "aux-out" ] ~docv:"FILE" ~doc:"Write the scheme's recognition hint (non-blind schemes) to FILE.")
  in
  Cmd.v
    (Cmd.info "embed" ~doc:"Compile a MiniC program and embed a watermark under a named scheme (VM or native track, per the scheme's capabilities).")
    Term.(
      const embed_generic $ source $ scheme_t $ key_t $ mark_t $ bits_t $ redundancy $ input_t $ out_t
      $ aux_out $ seed_t)

let recognize_generic path scheme_name key bits input aux aux_file streaming inject fault_seed =
  let (module W) = resolve_scheme scheme_name in
  let plan = plan_of inject fault_seed in
  let bytes, artifact_faults, inject_trace = offline_faults plan path in
  let carrier =
    match Scheme.Track.decode W.caps.Scheme.Watermarker.track bytes with
    | Some c -> c
    | None ->
        Printf.printf "artifact undecodable after %d artifact fault(s); nothing recovered\n" artifact_faults;
        exit exit_fault_abort
  in
  let aux = match aux_file with Some f -> Some (read_file f) | None -> aux in
  let spec = Scheme.Watermarker.spec ~key ~bits ~input () in
  let o =
    match (Fault.Inject.is_empty plan, W.sink, carrier) with
    | false, Some sink, Scheme.Watermarker.Vm_program _ -> (
        (* recognize offline from the fault-injected branch stream; a
           program the engine refuses has none, and the scheme's own
           recognizer reports why *)
        match Scheme.Track.branch_events spec carrier with
        | events -> Scheme.Watermarker.recognize_events sink spec (inject_trace events)
        | exception _ -> W.recognize ?aux spec carrier)
    | _ -> (
        match (streaming, W.sink, carrier) with
        | true, Some mk, Scheme.Watermarker.Vm_program prog ->
            (* push-based recognition over a live compiled run, stopping as
               soon as the scheme decides *)
            let s = mk spec in
            (match Scheme.Watermarker.run_sink s spec prog with
            | `Stopped steps ->
                Printf.printf "decided early: run stopped after %d steps\n" steps;
                s.Scheme.Watermarker.finish ()
            | `Completed -> s.Scheme.Watermarker.finish ()
            (* the engine refused the program: the scheme's own recognizer
               reports why *)
            | `Refused _ -> W.recognize ?aux spec carrier)
        | true, _, _ ->
            Printf.printf "scheme %s cannot recognize in streaming mode\n" W.name;
            exit 1
        | false, _, _ -> W.recognize ?aux spec carrier)
  in
  report_recovered o

let recognize_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"Watermarked artifact (serialized VM program or native binary, per the scheme's track).") in
  let aux =
    Arg.(value & opt (some string) None & info [ "aux" ] ~docv:"TEXT" ~doc:"Recognition hint printed by $(b,pathmark embed) (non-blind schemes).")
  in
  let aux_file =
    Arg.(value & opt (some file) None & info [ "aux-file" ] ~docv:"FILE" ~doc:"Read the recognition hint from FILE (see $(b,--aux-out)).")
  in
  Cmd.v
    (Cmd.info "recognize" ~doc:"Recognize a watermark under a named scheme.")
    Term.(
      const recognize_generic $ path $ scheme_t $ key_t $ bits_t $ input_t $ aux $ aux_file
      $ streaming_t $ inject_t $ fault_seed_t)

(* ---- native track ---- *)

let load_binary = decode_file "native binary" Nativesim.Binary.decode

let binary_path_t =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"BINARY" ~doc:"Native binary file.")

let run_native path input =
  let bin = load_binary path in
  let r = Nativesim.Machine.run bin ~input in
  List.iter (Printf.printf "%d\n") r.Nativesim.Machine.outputs;
  match r.Nativesim.Machine.outcome with
  | Nativesim.Machine.Halted -> Printf.printf "halted (%d steps)\n" r.Nativesim.Machine.steps
  | Nativesim.Machine.Trapped { reason; addr } ->
      Printf.printf "trapped at 0x%x: %s\n" addr reason;
      exit 1
  | Nativesim.Machine.Out_of_fuel ->
      Printf.printf "out of fuel\n";
      exit 1

let run_native_cmd =
  Cmd.v (Cmd.info "run-native" ~doc:"Execute a native binary.") Term.(const run_native $ binary_path_t $ input_t)

let disasm path =
  let bin = load_binary path in
  Format.printf "%a" Nativesim.Disasm.pp_listing bin

let disasm_cmd =
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a native binary.") Term.(const disasm $ binary_path_t)

(* ---- batch engine ---- *)

let builtin_workloads =
  [
    ("caffeine", Workloads.Caffeine.suite);
    ("jesslite", Workloads.Jesslite.engine);
  ]

let analyzer_workloads =
  Workloads.Spec.all @ [ Workloads.Caffeine.suite ] @ Workloads.Caffeine.kernels
  @ [ Workloads.Jesslite.engine ]

(* batch and service hosts: a built-in alias, or any VM workload by name *)
let host_workloads =
  builtin_workloads @ List.map (fun (w : Workloads.Workload.t) -> (w.Workloads.Workload.name, w)) analyzer_workloads

let unknown_host name =
  Printf.printf "unknown workload %s; available: %s\n" name
    (String.concat " " (List.sort_uniq compare (List.map fst host_workloads)));
  exit 1

(* analyze, audit and tournament name workloads from the analyzer set *)
let find_workload name =
  match
    List.find_opt (fun (w : Workloads.Workload.t) -> w.Workloads.Workload.name = name) analyzer_workloads
  with
  | Some w -> w
  | None ->
      Printf.printf "unknown workload %s; available: %s\n" name
        (String.concat " "
           (List.map (fun (w : Workloads.Workload.t) -> w.Workloads.Workload.name) analyzer_workloads));
      exit 1

let all_workloads_t =
  Arg.(
    value & flag
    & info [ "all-workloads" ]
        ~doc:"Run on every built-in workload: for $(b,analyze) every workload on both tracks (the CI clean gate), for $(b,audit) and $(b,tournament) every batch host.")

(* host program for batch and query: a MiniC source file, else a workload *)
let host_source_t =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"SOURCE.mc" ~doc:"MiniC source of the host program (omit to use $(b,--workload)).")

let host_workload_t =
  Arg.(value & opt string "caffeine" & info [ "workload" ] ~docv:"NAME" ~doc:"Built-in host workload when no source file is given (caffeine, jesslite, or any VM workload by name, e.g. gzip).")

let pieces_t = Arg.(value & opt int 40 & info [ "pieces" ] ~doc:"Number of redundant pieces per fingerprint.")

let jobs_t = Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Worker-domain count (1 = sequential).")

let events_t =
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc:"Write the JSON-lines event stream to FILE.")

(* the --events sink: [f] runs with a stream that writes JSON lines to FILE *)
let with_events events_file f =
  let oc = Option.map open_out events_file in
  let events = Engine.Events.create ?sink:(Option.map Engine.Events.json_sink oc) () in
  Fun.protect ~finally:(fun () -> Option.iter close_out oc) (fun () -> f events)

let cache_t =
  Arg.(value & opt string "mem" & info [ "cache" ] ~docv:"none|mem|DIR|store:DIR" ~doc:"Result/trace cache: disabled, in-memory, spilled to DIR, or backed by the persistent registry at DIR ($(b,store:DIR), incremental across runs).")

(* [f] runs with the --cache tier; a registry it opens is closed after *)
let with_cache spec f =
  let cache, store =
    match spec with
    | "none" -> (None, None)
    | "mem" -> (Some (Engine.Cache.create ()), None)
    | spec when String.length spec > 6 && String.starts_with ~prefix:"store:" spec ->
        let root = String.sub spec 6 (String.length spec - 6) in
        let store = or_store_corruption (fun () -> Store.Registry.open_store ~root ()) in
        (Some (Engine.Cache.create ~store ()), Some store)
    | dir -> (Some (Engine.Cache.create ~spill_dir:dir ()), None)
  in
  Fun.protect ~finally:(fun () -> Option.iter Store.Registry.close store) (fun () -> f cache)

let batch source workload scheme key bits pieces input fingerprints count mark jobs cache_spec
    events_file out_dir verify retries backoff_ms deadline_ms breaker fuel_escalation inject
    fault_seed seed quiet =
  ignore (require_vm_scheme scheme);
  let workload_entry = List.assoc_opt workload host_workloads in
  let program, default_input, host_name =
    match source with
    | Some path -> (Minic.To_stackvm.compile_source (read_file path), [], path)
    | None -> (
        match workload_entry with
        | Some w -> (Workloads.Workload.vm_program w, w.Workloads.Workload.input, w.Workloads.Workload.name)
        | None -> unknown_host workload)
  in
  let input = if input = [] then default_input else input in
  let fingerprints =
    if fingerprints <> [] then fingerprints
    else List.init count (fun i -> Bignum.add mark (Bignum.of_int i))
  in
  let limit = Bignum.shift_left (Bignum.of_int 1) bits in
  List.iter
    (fun fp ->
      if Bignum.compare fp limit >= 0 then begin
        Printf.printf "fingerprint %s does not fit in %d bits; raise --bits or pass smaller --mark/--fingerprints\n"
          (Bignum.to_string fp) bits;
        exit 1
      end)
    fingerprints;
  let job_specs =
    List.mapi
      (fun i fp ->
        Engine.Job.make ~label:("fp-" ^ Bignum.to_string fp) ~scheme
          ~seed:(Pathmark.batch_seed (Int64.of_int seed) i)
          ~key ~bits ~input (Scheme.Watermarker.Vm_program program)
          (Engine.Job.Embed { fingerprint = fp; pieces }))
      fingerprints
  in
  let policy =
    {
      Engine.Batch.default_policy with
      Engine.Batch.retries;
      backoff_ms;
      deadline_ms;
      breaker_threshold = breaker;
      fuel_escalation;
    }
  in
  let plan = plan_of inject fault_seed in
  let results, verify_failures =
    with_cache cache_spec (fun cache ->
        with_events events_file (fun events ->
            let run_jobs specs =
              Engine.Batch.run ~domains:jobs ~policy ~inject:plan ?cache ~events specs
            in
            Printf.printf "batch: %d embed jobs on %s, %d domain(s), cache %s%s\n%!"
              (List.length job_specs) host_name jobs cache_spec
              (if Fault.Inject.is_empty plan then "" else ", injecting " ^ Fault.Inject.describe plan);
            let results = run_jobs job_specs in
            Option.iter
              (fun dir ->
                if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                List.iter
                  (fun (r : Engine.Batch.result) ->
                    match r.Engine.Batch.outcome with
                    | Engine.Batch.Embedded { program = bytes; _ } ->
                        write_file (Filename.concat dir (r.Engine.Batch.job.Engine.Job.label ^ ".svm")) bytes
                    | _ -> ())
                  results)
              out_dir;
            let verify_failures =
              if not verify then 0
              else begin
                let recog_jobs =
                  List.concat
                    (List.map2
                       (fun fp (r : Engine.Batch.result) ->
                         match r.Engine.Batch.outcome with
                         | Engine.Batch.Embedded { program = bytes; _ } ->
                             [
                               Engine.Job.make ~label:("verify-" ^ Bignum.to_string fp) ~scheme ~key
                                 ~bits ~input
                                 (Scheme.Watermarker.Vm_program (Stackvm.Serialize.decode bytes))
                                 (Engine.Job.Recognize { expected = Some fp });
                             ]
                         | _ -> [])
                       fingerprints results)
                in
                let vresults = run_jobs recog_jobs in
                List.length (List.filter (fun r -> not (Engine.Batch.ok r)) vresults)
              end
            in
            if not quiet then print_string (Engine.Events.report events);
            Option.iter
              (fun c ->
                let s = Engine.Cache.stats c in
                Printf.printf "cache: %d hits, %d misses, %d disk loads, %d store loads, %d evictions\n"
                  s.Engine.Cache.hits s.Engine.Cache.misses s.Engine.Cache.disk_loads
                  s.Engine.Cache.store_loads s.Engine.Cache.evictions)
              cache;
            (results, verify_failures)))
  in
  let failed = List.filter (fun r -> not (Engine.Batch.ok r)) results in
  if failed <> [] || verify_failures > 0 then begin
    Printf.printf "batch FAILED: %d embed failures, %d verification failures\n" (List.length failed)
      verify_failures;
    exit (if Fault.Inject.is_empty plan then 1 else exit_fault_abort)
  end
  else Printf.printf "batch ok: %d fingerprints embedded%s\n" (List.length results)
         (if verify then " and verified" else "")

let batch_cmd =
  let fingerprints =
    Arg.(value & opt bignum_list_conv [] & info [ "fingerprints" ] ~docv:"W1,W2,..." ~doc:"Explicit fingerprint list (decimal).")
  in
  let count =
    Arg.(value & opt int 8 & info [ "count" ] ~docv:"N" ~doc:"Number of fingerprints to derive from $(b,--mark) when $(b,--fingerprints) is not given.")
  in
  let out_dir =
    Arg.(value & opt (some string) None & info [ "out-dir" ] ~docv:"DIR" ~doc:"Write each watermarked program to DIR/<label>.svm.")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"Recognize each embedded fingerprint after the batch and fail on mismatch.")
  in
  let retries =
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc:"Bounded retries per failing job.")
  in
  let backoff_ms =
    Arg.(value & opt float 0.0 & info [ "backoff-ms" ] ~docv:"MS" ~doc:"Base delay of the deterministic exponential retry backoff (0 disables sleeping).")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Wall-clock budget for the batch; jobs starting past it fail fast.")
  in
  let breaker =
    Arg.(value & opt int 0 & info [ "breaker" ] ~docv:"K" ~doc:"Circuit breaker: short-circuit a job spec after K consecutive crash-class failures (0 disables).")
  in
  let fuel_escalation =
    Arg.(value & opt float 1.0 & info [ "fuel-escalation" ] ~docv:"F" ~doc:"Scale bounded fuel budgets by F on every retry.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the human batch report.") in
  Cmd.v
    (Cmd.info "batch" ~doc:"Embed many fingerprints into one host program in parallel (the fleet-fingerprinting engine).")
    Term.(
      const batch $ host_source_t $ host_workload_t $ scheme_t $ key_t $ bits_t $ pieces_t $ input_t
      $ fingerprints $ count $ mark_t $ jobs_t $ cache_t $ events_t $ out_dir $ verify $ retries
      $ backoff_ms $ deadline_ms $ breaker $ fuel_escalation $ inject_t $ fault_seed_t $ seed_t $ quiet)

(* ---- static analysis: the stealth linter ---- *)

let analyze files native workload all_workloads scheme json =
  if files = [] && workload = None && not all_workloads then begin
    Printf.printf "nothing to analyze: pass a file, --workload NAME or --all-workloads\n";
    exit 2
  end;
  (* --scheme resolves the registry entry and narrows the sweep to the
     locator passes its capability metadata declares (composites union
     their members') *)
  let scheme_passes =
    Option.map
      (fun name ->
        let (module W : Scheme.Watermarker.WATERMARKER) = resolve_scheme name in
        let declared = W.caps.Scheme.Watermarker.locator_passes in
        let vm_passes =
          List.filter (fun p -> List.mem p Analysis.Locator.known_passes) declared
        in
        (vm_passes, List.mem "nlint" declared))
      scheme
  in
  let want_vm = match scheme_passes with None -> true | Some (vm, _) -> vm <> [] in
  let want_native = match scheme_passes with None -> true | Some (_, n) -> n in
  let vm_diags prog =
    match scheme_passes with
    | Some (vm_passes, _) when vm_passes <> [] ->
        (Analysis.Locator.run ~passes:vm_passes prog).Analysis.Locator.diags
    | _ -> Analysis.Vmlint.lint prog
  in
  let events =
    Engine.Events.create ?sink:(if json then Some (Engine.Events.json_sink stdout) else None) ()
  in
  let total = ref 0 in
  let report label diags =
    total := !total + List.length diags;
    if not json then Printf.printf "%s: %d finding(s)\n" label (List.length diags);
    List.iter
      (fun (d : Analysis.Diag.t) ->
        if not json then Printf.printf "  %s\n" (Analysis.Diag.to_string d);
        Engine.Events.emit events
          (Engine.Events.Diag
             {
               rule = d.Analysis.Diag.rule;
               location = Analysis.Diag.location_string d;
               message = d.Analysis.Diag.message;
             }))
      diags
  in
  (* Histogram corpus: the clean built-in binaries, leave-one-out when the
     subject is itself a built-in workload. *)
  let corpus_for ?exclude () =
    List.filter_map
      (fun (w : Workloads.Workload.t) ->
        if exclude = Some w.Workloads.Workload.name then None
        else Some (Analysis.Histogram.of_binary (Workloads.Workload.native_binary w)))
      analyzer_workloads
  in
  let lint_workload (w : Workloads.Workload.t) =
    let name = w.Workloads.Workload.name in
    if want_vm then report (name ^ " (vm)") (vm_diags (Workloads.Workload.vm_program w));
    if want_native then
      report (name ^ " (native)")
        (Analysis.Nlint.lint ~corpus:(corpus_for ~exclude:name ()) (Workloads.Workload.native_binary w))
  in
  List.iter
    (fun path ->
      if native then
        report path
          (Analysis.Nlint.lint ~corpus:(corpus_for ()) (load_binary path))
      else report path (vm_diags (load_vm path)))
    files;
  Option.iter (fun name -> lint_workload (find_workload name)) workload;
  if all_workloads then List.iter lint_workload analyzer_workloads;
  if not json then Printf.printf "%d finding(s) total\n" !total;
  if !total > 0 then exit exit_analysis_findings

let analyze_cmd =
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Serialized VM program (or native binary with $(b,--native)).")
  in
  let native = Arg.(value & flag & info [ "native" ] ~doc:"Treat positional files as native binaries.") in
  let workload =
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc:"Lint a built-in workload on both tracks.")
  in
  let scheme =
    Arg.(
      value
      & opt (some string) None
      & info [ "scheme" ] ~docv:"NAME"
          ~doc:"Narrow the sweep to the locator passes this registered scheme declares (track-aware; '+'-joined names union their members' passes).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON-lines diagnostic events on stdout instead of human output.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the stealth linter: surface the static artifacts a watermark embedding leaves behind. Exits 7 when any diagnostic fires (1 is reserved for analyzer errors).")
    Term.(const analyze $ files $ native $ workload $ all_workloads_t $ scheme $ json)

(* ---- scorecards: the scheme x workload matrix audit and tournament share ---- *)

type matrix = {
  schemes : string list;
  workloads : Workloads.Workload.t list;
  jobs : int;
  bits : int;
  seed : int64;
  json : bool;
  no_gate : bool;
}

let default_matrix_schemes = [ "jwm"; "nwm"; "gwm"; "jwm+gwm" ]

let matrix_t =
  let schemes =
    Arg.(
      value & opt_all string []
      & info [ "scheme" ] ~docv:"NAME"
          ~doc:"Scheme to measure (repeatable; '+'-joined names compose). Defaults to jwm, nwm, gwm and jwm+gwm.")
  in
  let workloads =
    Arg.(
      value & opt_all string []
      & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run the matrix on (repeatable). Defaults to caffeine.")
  in
  let bits = Arg.(value & opt int 16 & info [ "bits" ] ~docv:"N" ~doc:"Fingerprint width in bits.") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the scorecard as JSON.") in
  let no_gate =
    Arg.(
      value & flag
      & info [ "no-gate" ]
          ~doc:"Report only: do not fail (exit 7) when the scorecard gate fails (a scheme beyond its declared locatability or below its resilience floor, a control cell false-positive, a failed cell, or the locator flagging clean code).")
  in
  let make schemes workload_names all_workloads jobs bits seed json no_gate =
    let schemes = if schemes = [] then default_matrix_schemes else schemes in
    (* resolve up front so an unknown name is exit 6, not a failed cell *)
    List.iter (fun s -> ignore (resolve_scheme s)) schemes;
    let workloads =
      if all_workloads then List.map snd builtin_workloads
      else if workload_names = [] then [ Workloads.Caffeine.suite ]
      else List.map find_workload workload_names
    in
    { schemes; workloads; jobs; bits; seed = Int64.of_int seed; json; no_gate }
  in
  Term.(const make $ schemes $ workloads $ all_workloads_t $ jobs_t $ bits $ seed_t $ json $ no_gate)

let exit_on_gate m ok = if (not ok) && not m.no_gate then exit exit_analysis_findings

(* ---- audit: the per-scheme stealth scorecard ---- *)

let audit m =
  let card =
    Audit.Scorecard.run ~domains:m.jobs ~seed:m.seed ~bits:m.bits ~schemes:m.schemes
      ~workloads:m.workloads ()
  in
  print_string (if m.json then Audit.Scorecard.to_json card else Audit.Scorecard.render card);
  exit_on_gate m (Audit.Scorecard.gate_ok card)

let audit_cmd =
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Embed each scheme into clean workloads and score how much of the mark the static locator finds, gated against each scheme's declared attack surface. Exits 7 on a gate violation.")
    Term.(const audit $ matrix_t)

(* ---- experiments ---- *)

let experiment which =
  match which with
  | "f5" -> Experiments.Fig5.print (Experiments.Fig5.run ())
  | "f8a" | "f8b" ->
      let cost = Experiments.Fig8.run_cost () in
      if which = "f8a" then Experiments.Fig8.print_a cost else Experiments.Fig8.print_b cost
  | "f8c" -> Experiments.Fig8.print_c (Experiments.Fig8.run_c ())
  | "f8d" -> Experiments.Fig8.print_d (Experiments.Fig8.run_d ())
  | "f9a" | "f9b" ->
      let t = Experiments.Fig9.run () in
      if which = "f9a" then Experiments.Fig9.print_a t else Experiments.Fig9.print_b t
  | "tj" -> Experiments.Tables.print_java (Experiments.Tables.run_java ())
  | "tn" -> Experiments.Tables.print_native (Experiments.Tables.run_native ())
  | "abl" -> Experiments.Ablations.print (Experiments.Ablations.run ())
  | "absa" -> Experiments.Abl_sa.print (Experiments.Abl_sa.run ())
  | "abfi" -> Experiments.Abl_fi.print (Experiments.Abl_fi.run ())
  | "dwm" -> Experiments.Dwm.print (Experiments.Dwm.run ())
  | "all" ->
      Experiments.Fig5.print (Experiments.Fig5.run ());
      let cost = Experiments.Fig8.run_cost () in
      Experiments.Fig8.print_a cost;
      Experiments.Fig8.print_b cost;
      Experiments.Fig8.print_c (Experiments.Fig8.run_c ());
      Experiments.Fig8.print_d (Experiments.Fig8.run_d ());
      let f9 = Experiments.Fig9.run () in
      Experiments.Fig9.print_a f9;
      Experiments.Fig9.print_b f9;
      Experiments.Tables.print_java (Experiments.Tables.run_java ());
      Experiments.Tables.print_native (Experiments.Tables.run_native ());
      Experiments.Ablations.print (Experiments.Ablations.run ());
      Experiments.Abl_sa.print (Experiments.Abl_sa.run ());
      Experiments.Abl_fi.print (Experiments.Abl_fi.run ());
      Experiments.Dwm.print (Experiments.Dwm.run ())
  | other ->
      Printf.printf "unknown experiment %s (use f5 f8a f8b f8c f8d f9a f9b tj tn abl absa abfi dwm all)\n" other;
      exit 1

let experiment_cmd =
  let which = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id: f5 f8a f8b f8c f8d f9a f9b tj tn abl absa abfi dwm all.") in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table or figure from the paper.")
    Term.(const experiment $ which)

(* ---- persistent registry (lib/store) ---- *)

let kind_conv =
  let parse s =
    match Store.Artifact.kind_of_string (String.trim s) with
    | Some k -> Ok k
    | None ->
        Error
          (`Msg
             (Printf.sprintf "invalid artifact kind %S (expected %s)" s
                (String.concat ", " (List.map Store.Artifact.kind_to_string Store.Artifact.all_kinds))))
  in
  let print ppf k = Format.pp_print_string ppf (Store.Artifact.kind_to_string k) in
  Arg.conv ~docv:"KIND" (parse, print)

let root_t =
  Arg.(
    value
    & opt string "pathmark-store"
    & info [ "root" ] ~docv:"DIR" ~doc:"Registry root directory (created if missing).")

let kind_t =
  Arg.(
    value
    & opt kind_conv Store.Artifact.Vm_program
    & info [ "kind" ] ~docv:"KIND" ~doc:"Artifact kind: vm, native, trace, key, report, cache.")

let with_store ?(fsync = true) root f =
  or_store_corruption (fun () ->
      let store = Store.Registry.open_store ~fsync ~root () in
      Fun.protect ~finally:(fun () -> Store.Registry.close store) (fun () -> f store))

let print_recovery store =
  let r = Store.Registry.recovery store in
  if r.Store.Registry.truncated_bytes > 0 || r.Store.Registry.skipped > 0 then
    Printf.printf "recovery: replayed %d record(s), truncated %d torn tail byte(s), skipped %d undecodable\n"
      r.Store.Registry.replayed r.Store.Registry.truncated_bytes r.Store.Registry.skipped

let store_put root kind artifact_key label file =
  with_store root (fun store ->
      print_recovery store;
      let payload = read_file file in
      let key =
        match artifact_key with Some k -> k | None -> Digest.to_hex (Digest.string payload)
      in
      let entry = Store.Registry.put store ~kind ~key ?label payload in
      Printf.printf "stored %s %s (%d bytes, seq %d)\n"
        (Store.Artifact.kind_to_string entry.Store.Artifact.kind)
        entry.Store.Artifact.key entry.Store.Artifact.size entry.Store.Artifact.seq)

let store_put_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Payload file.") in
  let artifact_key =
    Arg.(value & opt (some string) None & info [ "artifact-key" ] ~docv:"KEY" ~doc:"Registry key (defaults to the payload's content digest).")
  in
  let label = Arg.(value & opt (some string) None & info [ "label" ] ~docv:"TEXT" ~doc:"Cosmetic label.") in
  Cmd.v
    (Cmd.info "put" ~doc:"Store a file in the registry.")
    Term.(const store_put $ root_t $ kind_t $ artifact_key $ label $ file)

let store_get root kind key out =
  with_store root (fun store ->
      print_recovery store;
      match Store.Registry.get store ~kind ~key with
      | Ok (payload, entry) ->
          write_file out payload;
          Printf.printf "%s %s -> %s (%d bytes)\n"
            (Store.Artifact.kind_to_string kind)
            entry.Store.Artifact.key out entry.Store.Artifact.size
      | Error `Missing ->
          Printf.printf "no %s artifact under %s\n" (Store.Artifact.kind_to_string kind) key;
          exit 1
      | Error (`Damaged msg) ->
          Printf.eprintf "store corruption: %s\n" msg;
          exit exit_store_corruption)

let store_get_cmd =
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY" ~doc:"Registry key.") in
  Cmd.v
    (Cmd.info "get" ~doc:"Fetch an artifact (verifying its content digest).")
    Term.(const store_get $ root_t $ kind_t $ key $ out_t)

let store_list root =
  with_store root (fun store ->
      print_recovery store;
      let entries = Store.Registry.list store in
      List.iter
        (fun (e : Store.Artifact.entry) ->
          Printf.printf "%-7s %s  %8d bytes  seq %-5d %s\n"
            (Store.Artifact.kind_to_string e.Store.Artifact.kind)
            e.Store.Artifact.key e.Store.Artifact.size e.Store.Artifact.seq e.Store.Artifact.label)
        entries;
      let s = Store.Registry.stats store in
      Printf.printf "%d entr%s, %d journal bytes, %d payload bytes\n" s.Store.Registry.entries
        (if s.Store.Registry.entries = 1 then "y" else "ies")
        s.Store.Registry.journal_bytes s.Store.Registry.payload_bytes)

let store_list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List live registry entries.") Term.(const store_list $ root_t)

let store_gc root =
  with_store root (fun store ->
      print_recovery store;
      let c = Store.Registry.compact store in
      Printf.printf "compacted: %d live entr%s kept, %d stale record(s) dropped, %d orphan blob(s) removed\n"
        c.Store.Registry.live
        (if c.Store.Registry.live = 1 then "y" else "ies")
        c.Store.Registry.dropped_records c.Store.Registry.blobs_removed)

let store_gc_cmd =
  Cmd.v
    (Cmd.info "gc" ~doc:"Compact the journal to live entries and delete unreferenced blobs.")
    Term.(const store_gc $ root_t)

let store_cmd =
  Cmd.group
    (Cmd.info "store" ~doc:"Inspect and maintain the persistent watermark registry.")
    [ store_put_cmd; store_get_cmd; store_list_cmd; store_gc_cmd ]

(* ---- service layer (lib/service) ---- *)

let socket_t =
  Arg.(
    value
    & opt string "/tmp/pathmark.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let max_inflight_t =
  Arg.(value & opt (some int) None & info [ "max-inflight" ] ~docv:"N" ~doc:"Shed embed/recognize requests beyond N in flight per server (answered $(i,overloaded); clients back off and retry).")

(* SIGTERM/SIGINT flip a flag the server's [stop] predicate polls: the
   listener drains in-flight requests, fsyncs the journal, removes the
   socket file and the process exits 0 — a supervisor's `kill` never
   loses an acknowledged write *)
let drain_on_signals () =
  let flag = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set flag true) in
  (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ());
  flag

let serve root socket domains max_requests max_inflight no_fsync events_file =
  or_store_corruption (fun () ->
      let store = Store.Registry.open_store ~fsync:(not no_fsync) ~root () in
      Fun.protect
        ~finally:(fun () -> Store.Registry.close store)
        (fun () ->
          print_recovery store;
          with_events events_file (fun events ->
              let r = Store.Registry.recovery store in
              Engine.Events.emit events
                (Engine.Events.Store_replay
                   { records = r.Store.Registry.replayed; truncated_bytes = r.Store.Registry.truncated_bytes });
              Printf.printf "serving registry %s on %s (%d worker domain(s))\n%!" root socket domains;
              let draining = drain_on_signals () in
              let stopped =
                Service.Server.serve ~events ~domains ?max_requests ?max_inflight
                  ~stop:(fun () -> Atomic.get draining)
                  ~store ~socket_path:socket ()
              in
              Printf.printf "served %d request(s), %d error(s), %d shed\n"
                stopped.Service.Server.requests stopped.Service.Server.errors
                stopped.Service.Server.shed)))

let serve_cmd =
  let domains =
    Arg.(value & opt int 2 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains for embed/recognize requests.")
  in
  let max_requests =
    Arg.(value & opt (some int) None & info [ "max-requests" ] ~docv:"N" ~doc:"Stop after N requests (smoke tests).")
  in
  let no_fsync =
    Arg.(value & flag & info [ "no-fsync" ] ~doc:"Skip fsync on journal commits (benchmarks only).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Serve the watermark registry and embed/recognize operations over a Unix-domain socket. SIGTERM/SIGINT drain gracefully.")
    Term.(const serve $ root_t $ socket_t $ domains $ max_requests $ max_inflight_t $ no_fsync $ events_t)

let fail_service code message =
  Printf.printf "service error [%s]: %s\n" code message;
  exit
    (if code = "damaged" then exit_store_corruption
     else if code = "unknown-scheme" then exit_unknown_scheme
     else 1)

(* connection refused / retries exhausted / per-request deadline blown:
   all exit 8, the retryable "the server is not there" code *)
let or_service_unavailable f =
  try f () with
  | Service.Client.Unavailable msg ->
      Printf.eprintf "service unavailable: %s\n" msg;
      exit exit_service_unavailable
  | Service.Client.Timed_out msg ->
      Printf.eprintf "service timed out: %s\n" msg;
      exit exit_service_unavailable

let query socket deadline source workload scheme key mark bits pieces input seed embed digest
    recognize_file expect want_stats want_list want_shutdown =
  let workload_entry = List.assoc_opt workload host_workloads in
  let program_bytes_and_input () =
    match source with
    | Some path -> (Stackvm.Serialize.encode (Minic.To_stackvm.compile_source (read_file path)), input)
    | None -> (
        match workload_entry with
        | Some w ->
            ( Stackvm.Serialize.encode (Workloads.Workload.vm_program w),
              if input = [] then w.Workloads.Workload.input else input )
        | None -> unknown_host workload)
  in
  let ran = ref false in
  or_service_unavailable (fun () ->
  Service.Client.with_client ?deadline socket (fun client ->
      let call req = Service.Client.call ?deadline client req in
      if embed then begin
        ran := true;
        let program, input = program_bytes_and_input () in
        match
          call
            (Service.Proto.Embed
               {
                 scheme;
                 program;
                 key;
                 bits;
                 pieces;
                 fingerprint = mark;
                 input;
                 seed = Int64.of_int seed;
               })
        with
        | Service.Proto.Embedded { digest; label; bytes_before; bytes_after } ->
            Printf.printf "embedded: %s (%d -> %d bytes)\n" label bytes_before bytes_after;
            Printf.printf "digest: %s\n" digest
        | Service.Proto.Error { code; message } -> fail_service code message
        | _ -> failwith "unexpected response to embed"
      end;
      (match (digest, recognize_file) with
      | None, None -> ()
      | _ -> (
          ran := true;
          let source =
            match (digest, recognize_file) with
            | Some d, _ -> `Stored d
            | None, Some f -> `Bytes (read_file f)
            | None, None -> assert false
          in
          let input =
            if input = [] then
              match workload_entry with Some w -> w.Workloads.Workload.input | None -> input
            else input
          in
          match call (Service.Proto.Recognize { scheme; source; key; bits; input }) with
          | Service.Proto.Recognized { value; confidence; registered } -> (
              Printf.printf "confidence %.3f\n" confidence;
              Option.iter
                (fun (i : Service.Proto.entry_info) ->
                  Printf.printf "registered: %s (%s)\n" i.Service.Proto.key i.Service.Proto.label)
                registered;
              match value with
              | Some w -> (
                  Printf.printf "fingerprint: %s\n" (Bignum.to_string w);
                  match expect with
                  | Some e when not (Bignum.equal e w) ->
                      Printf.printf "expected %s\n" (Bignum.to_string e);
                      exit exit_recognition_failed
                  | _ -> ())
              | None ->
                  Printf.printf "no watermark recovered\n";
                  exit exit_recognition_failed)
          | Service.Proto.Error { code; message } ->
              if expect <> None && (code = "not-found" || code = "bad-request") then begin
                Printf.printf "service error [%s]: %s\n" code message;
                exit exit_recognition_failed
              end
              else fail_service code message
          | _ -> failwith "unexpected response to recognize"));
      if want_stats then begin
        ran := true;
        match call Service.Proto.Stats with
        | Service.Proto.Stats_reply { entries; journal_bytes; payload_bytes; puts; gets; requests; errors }
          ->
            Printf.printf
              "entries %d, journal %d bytes, payloads %d bytes; %d put(s), %d get(s); %d request(s), %d error(s)\n"
              entries journal_bytes payload_bytes puts gets requests errors
        | Service.Proto.Error { code; message } -> fail_service code message
        | _ -> failwith "unexpected response to stats"
      end;
      if want_list then begin
        ran := true;
        match call Service.Proto.List_artifacts with
        | Service.Proto.Listing infos ->
            List.iter
              (fun (i : Service.Proto.entry_info) ->
                Printf.printf "%-7s %s  %8d bytes  seq %-5d %s\n"
                  (Store.Artifact.kind_to_string i.Service.Proto.kind)
                  i.Service.Proto.key i.Service.Proto.size i.Service.Proto.seq i.Service.Proto.label)
              infos
        | Service.Proto.Error { code; message } -> fail_service code message
        | _ -> failwith "unexpected response to list"
      end;
      if want_shutdown then begin
        ran := true;
        match call Service.Proto.Shutdown with
        | Service.Proto.Shutting_down -> Printf.printf "server shutting down\n"
        | Service.Proto.Error { code; message } -> fail_service code message
        | _ -> failwith "unexpected response to shutdown"
      end));
  if not !ran then begin
    Printf.printf "nothing to do: pass --embed, --digest, --recognize, --stats, --list or --shutdown\n";
    exit 2
  end

let query_cmd =
  let embed = Arg.(value & flag & info [ "embed" ] ~doc:"Embed $(b,--mark) server-side and register the result.") in
  let digest =
    Arg.(value & opt (some string) None & info [ "digest" ] ~docv:"HEX" ~doc:"Recognize the stored program with this digest.")
  in
  let recognize_file =
    Arg.(value & opt (some file) None & info [ "recognize" ] ~docv:"FILE" ~doc:"Recognize a local serialized VM program server-side.")
  in
  let expect =
    Arg.(value & opt (some bignum_conv) None & info [ "expect" ] ~docv:"W" ~doc:"Fail (exit 3) unless recognition recovers exactly this fingerprint.")
  in
  let want_stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print registry and server statistics.") in
  let want_list = Arg.(value & flag & info [ "list" ] ~doc:"List registered artifacts.") in
  let want_shutdown = Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the server to stop.") in
  let deadline =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc:"Per-request deadline; connect retries with jittered backoff until it expires, then exit 8.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Talk to a running $(b,pathmark serve): embed, recognize, inspect.")
    Term.(
      const query $ socket_t $ deadline $ host_source_t $ host_workload_t $ scheme_t $ key_t $ mark_t
      $ bits_t $ pieces_t $ input_t $ seed_t $ embed $ digest $ recognize_file $ expect $ want_stats $ want_list
      $ want_shutdown)

(* ---- cluster topology (lib/shard) ---- *)

let cluster_dir_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR" ~doc:"Cluster directory: shard registry roots and sockets live here.")

(* endpoints from the on-disk layout, so status/drain can address a
   cluster another process is serving *)
let discover_endpoints dir =
  (if Sys.file_exists dir then Array.to_list (Sys.readdir dir) else [])
  |> List.filter_map (fun f ->
         match Filename.chop_suffix_opt ~suffix:".sock" f with
         | Some name
           when String.starts_with ~prefix:"shard-" name
                && not (String.ends_with ~suffix:"-replica" name) ->
             let rep = Filename.concat dir (name ^ "-replica.sock") in
             Some
               {
                 Shard.Router.name;
                 socket = Filename.concat dir f;
                 replica = (if Sys.file_exists rep then Some rep else None);
               }
         | _ -> None)
  |> List.sort (fun a b -> compare a.Shard.Router.name b.Shard.Router.name)

let parse_replicate shards = function
  | None -> []
  | Some "all" -> List.init shards (fun i -> i)
  | Some spec ->
      String.split_on_char ',' spec
      |> List.filter_map (fun s ->
             match int_of_string_opt (String.trim s) with
             | Some i when i >= 0 && i < shards -> Some i
             | _ ->
                 Printf.eprintf "bad --replicate entry %S (want indices below %d, or \"all\")\n" s shards;
                 exit 2)

let cluster_serve dir shards replicate max_inflight events_file =
  with_events events_file (fun events ->
      let replicate = parse_replicate shards replicate in
      let cluster = Shard.Cluster.start ~events ?max_inflight ~replicate ~dir ~shards () in
      List.iter
        (fun ep ->
          Printf.printf "%s on %s%s\n" ep.Shard.Router.name ep.Shard.Router.socket
            (match ep.Shard.Router.replica with Some r -> " (replica " ^ r ^ ")" | None -> ""))
        (Shard.Cluster.endpoints cluster);
      Printf.printf "%d shard(s) up under %s; SIGTERM drains\n%!" shards dir;
      let draining = drain_on_signals () in
      while not (Atomic.get draining) do
        Unix.sleepf 0.1
      done;
      List.iter
        (fun (name, (s : Service.Server.stopped)) ->
          Printf.printf "%s: %d request(s), %d error(s), %d shed\n" name s.Service.Server.requests
            s.Service.Server.errors s.Service.Server.shed)
        (Shard.Cluster.stop cluster))

let cluster_serve_cmd =
  let shards = Arg.(value & opt int 3 & info [ "shards" ] ~docv:"N" ~doc:"Number of shard servers.") in
  let replicate =
    Arg.(value & opt (some string) None & info [ "replicate" ] ~docv:"SPEC" ~doc:"Shard indices that get a journal-shipping standby: comma-separated, or $(b,all).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run N shard servers (consistent-hash ring) with optional standby replicas under one directory.")
    Term.(const cluster_serve $ cluster_dir_t $ shards $ replicate $ max_inflight_t $ events_t)

let cluster_status dir =
  match discover_endpoints dir with
  | [] ->
      Printf.eprintf "no shard sockets under %s\n" dir;
      exit exit_service_unavailable
  | endpoints ->
      let router = Shard.Router.create endpoints in
      let unreachable = ref 0 in
      List.iter
        (fun (name, socket, reply) ->
          match reply with
          | Ok (role, entries, journal_bytes, digest) ->
              Printf.printf "%-10s %-8s %6d entr%s %9d journal bytes  %s  (%s)\n" name role entries
                (if entries = 1 then "y" else "ies")
                journal_bytes
                (if digest = "" then "-" else String.sub digest 0 12)
                socket
          | Error msg ->
              incr unreachable;
              Printf.printf "%-10s DOWN: %s\n" name msg)
        (Shard.Router.ping_all router);
      Shard.Router.close router;
      if !unreachable > 0 then exit exit_service_unavailable

let cluster_status_cmd =
  Cmd.v
    (Cmd.info "status" ~doc:"Ping every shard (and promoted replica) in a cluster directory; exit 8 if any is down.")
    Term.(const cluster_status $ cluster_dir_t)

let cluster_drain dir =
  let endpoints = discover_endpoints dir in
  if endpoints = [] then begin
    Printf.eprintf "no shard sockets under %s\n" dir;
    exit exit_service_unavailable
  end;
  let sockets =
    List.concat_map
      (fun ep ->
        (ep.Shard.Router.name, ep.Shard.Router.socket)
        :: (match ep.Shard.Router.replica with
           | Some r -> [ (ep.Shard.Router.name ^ "-replica", r) ]
           | None -> []))
      endpoints
  in
  List.iter
    (fun (name, socket) ->
      match
        Service.Client.with_client ~deadline:2.0 socket (fun c ->
            Service.Client.call ~deadline:5.0 c Service.Proto.Shutdown)
      with
      | Service.Proto.Shutting_down -> Printf.printf "%s draining\n" name
      | _ -> Printf.printf "%s: unexpected reply to shutdown\n" name
      | exception (Service.Client.Unavailable _ | Service.Client.Timed_out _) ->
          Printf.printf "%s already down\n" name)
    sockets

let cluster_drain_cmd =
  Cmd.v
    (Cmd.info "drain" ~doc:"Gracefully stop every shard and replica in a cluster directory (in-flight requests finish, journals fsync).")
    Term.(const cluster_drain $ cluster_dir_t)

let cluster_drill dir shards ops marks =
  let mark_program, mark_input =
    match List.assoc_opt "caffeine" builtin_workloads with
    | Some w ->
        ( Some (Stackvm.Serialize.encode (Workloads.Workload.vm_program w)),
          w.Workloads.Workload.input )
    | None -> (None, [])
  in
  let r =
    Shard.Drill.run ~shards ~ops ~marks ?mark_program ~mark_input
      ~log:(fun m -> Printf.printf "%s\n%!" m)
      ~dir ()
  in
  Printf.printf
    "drill: %d shard(s), %d call(s), %d mark pair(s), %d lost; failover %.1f ms, recovery %.1f ms; p50 %.2f ms, p99 %.2f ms\n"
    r.Shard.Drill.shards r.Shard.Drill.ops r.Shard.Drill.marks r.Shard.Drill.lost
    r.Shard.Drill.failover_ms r.Shard.Drill.recovery_ms r.Shard.Drill.ms_p50 r.Shard.Drill.ms_p99;
  if r.Shard.Drill.lost > 0 then begin
    Printf.printf "FAIL: %d acknowledged response(s) lost across the failover\n" r.Shard.Drill.lost;
    exit 1
  end

let cluster_drill_cmd =
  let shards = Arg.(value & opt int 3 & info [ "shards" ] ~docv:"N" ~doc:"Shard servers (shard-0 gets the standby that is promoted).") in
  let ops = Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"N" ~doc:"Put/get pairs to soak with (the leader dies 60% through).") in
  let marks = Arg.(value & opt int 4 & info [ "marks" ] ~docv:"N" ~doc:"Embed/recognize pairs to interleave.") in
  Cmd.v
    (Cmd.info "drill" ~doc:"Failover drill: soak a fresh cluster, kill the replicated leader mid-batch, verify zero lost responses. Exits 1 on any loss.")
    Term.(const cluster_drill $ cluster_dir_t $ shards $ ops $ marks)

let cluster_cmd =
  Cmd.group
    (Cmd.info "cluster" ~doc:"Run and operate a sharded, replicated pathmark service.")
    [ cluster_serve_cmd; cluster_status_cmd; cluster_drain_cmd; cluster_drill_cmd ]

(* ---- tournament: the cross-product resilience scorecard ---- *)

(* publish the scorecard JSON to a running cluster and read it back, so
   an operator can fetch the latest matrix from any shard *)
let publish_scorecard dir payload =
  match discover_endpoints dir with
  | [] ->
      Printf.eprintf "no shard sockets under %s\n" dir;
      exit exit_service_unavailable
  | endpoints ->
      let router = Shard.Router.create endpoints in
      let finally () = Shard.Router.close router in
      Fun.protect ~finally (fun () ->
          let key = Digest.to_hex (Digest.string payload) in
          (match
             Shard.Router.call router ~key
               (Service.Proto.Put_artifact
                  { kind = Store.Artifact.Report; key; label = "tournament-scorecard"; payload })
           with
          | Ok (Service.Proto.Stored _) -> ()
          | Ok _ ->
              Printf.eprintf "unexpected reply publishing the scorecard\n";
              exit exit_service_unavailable
          | Error e ->
              Printf.eprintf "cluster put failed: %s\n" (Shard.Router.error_to_string e);
              exit exit_service_unavailable);
          match
            Shard.Router.call router ~key (Service.Proto.Get_artifact { kind = Store.Artifact.Report; key })
          with
          | Ok (Service.Proto.Artifact { payload = back; _ }) when back = payload ->
              Printf.printf "scorecard published to cluster shard %s (report %s)\n"
                (Shard.Router.route router ~key)
                (String.sub key 0 12)
          | Ok _ | Error _ ->
              Printf.eprintf "cluster read-back of the published scorecard failed\n";
              exit exit_service_unavailable)

let tournament m attack_names fault_specs fault_seed cache_spec events_file cluster =
  let attacks = match attack_names with [] -> None | l -> Some l in
  let fault_plans =
    match fault_specs with
    | [] -> None
    | plans ->
        (* the clean baseline always runs; each --faults occurrence adds
           one plan, named by its spec list *)
        Some
          (("clean", [])
          :: List.map
               (fun specs -> (String.concat "," (List.map Fault.Spec.to_string specs), specs))
               plans)
  in
  let card =
    try
      with_cache cache_spec (fun cache ->
          with_events events_file (fun events ->
              Tournament.Scorecard.run ~domains:m.jobs ~seed:m.seed ~bits:m.bits
                ~fault_seed:(Int64.of_int fault_seed) ?attacks ?fault_plans ?cache ~events
                ~schemes:m.schemes ~workloads:m.workloads ()))
    with Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let json = Tournament.Scorecard.to_json card in
  print_string (if m.json then json else Tournament.Scorecard.render card);
  Option.iter (fun dir -> publish_scorecard dir json) cluster;
  exit_on_gate m (Tournament.Scorecard.gate_ok card)

let tournament_cmd =
  let attacks =
    Arg.(
      value & opt_all string []
      & info [ "attack" ] ~docv:"NAME"
          ~doc:"Attack to include (repeatable; applied on every track that knows the name, see $(b,list-attacks)). Defaults to one representative per attack class on each track.")
  in
  let faults =
    Arg.(
      value & opt_all inject_conv []
      & info [ "faults" ] ~docv:"NAME=RATE,..."
          ~doc:"Fault plan to add as a matrix dimension (repeatable; the clean plan always runs too). Defaults to clean plus a sub-tolerance noisy plan.")
  in
  let cluster =
    Arg.(
      value & opt (some string) None
      & info [ "cluster" ] ~docv:"DIR"
          ~doc:"Publish the scorecard JSON to the running cluster under DIR and verify the read-back (exit 8 if unreachable).")
  in
  Cmd.v
    (Cmd.info "tournament"
       ~doc:"Run the scheme × workload × attack × fault-plan resilience matrix through the batch engine and reduce it to per-scheme scorecards, gated against each scheme's declared resilience floor. Exits 7 on a gate violation.")
    Term.(
      const tournament $ matrix_t $ attacks $ faults $ fault_seed_t $ cache_t $ events_t $ cluster)

let main =
  Cmd.group
    (Cmd.info "pathmark" ~version:"1.0.0"
       ~doc:"Dynamic path-based software watermarking (Collberg et al., PLDI 2004).")
    [
      batch_cmd;
      schemes_cmd;
      embed_cmd;
      recognize_cmd;
      run_vm_cmd;
      trace_vm_cmd;
      recognize_trace_cmd;
      attack_vm_cmd;
      list_attacks_cmd;
      faults_cmd;
      run_native_cmd;
      disasm_cmd;
      analyze_cmd;
      audit_cmd;
      tournament_cmd;
      experiment_cmd;
      store_cmd;
      serve_cmd;
      query_cmd;
      cluster_cmd;
    ]

let () = exit (Cmd.eval main)
