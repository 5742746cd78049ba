type outcome =
  | Vm_embedded of { program : string; bytes_before : int; bytes_after : int }
  | Vm_recognized of { value : Bignum.t option; matched : bool option }
  | Audited of {
      passes : string list;
      marked_fns : string list;
      flagged_fns : string list;
      clean_flagged : string list;
      ndiags : int;
    }
  | Tournament_measured of {
      attack : string;
      control : bool;
      survived : bool;
      false_positive : bool;
      confidence : float;
      nfaults : int;
    }
  | Failed of { reason : string; attempts : int }

type result = { job : Job.t; outcome : outcome; ms : float; attempts : int; from_cache : bool }

let ok r =
  match r.outcome with
  | Failed _ -> false
  | Vm_recognized { value; matched } -> value <> None && matched <> Some false
  | Vm_embedded _ | Audited _ -> true
  (* a killed mark is a measurement, not a job failure; only a false
     positive on a control cell counts against the batch *)
  | Tournament_measured { false_positive; _ } -> not false_positive

let describe_outcome = function
  | Vm_embedded { bytes_before; bytes_after; _ } ->
      Printf.sprintf "embedded (%d -> %d bytes)" bytes_before bytes_after
  | Vm_recognized { value; matched } -> (
      match (value, matched) with
      | None, _ -> "no watermark recovered"
      | Some w, Some true -> Printf.sprintf "recognized %s (match)" (Bignum.to_string w)
      | Some w, Some false -> Printf.sprintf "recognized %s (MISMATCH)" (Bignum.to_string w)
      | Some w, None -> Printf.sprintf "recognized %s" (Bignum.to_string w))
  | Audited { passes; marked_fns; flagged_fns; clean_flagged; ndiags } ->
      let hits = List.filter (fun f -> List.mem f marked_fns) flagged_fns in
      Printf.sprintf "audited [%s]: located %d/%d marked function(s), %d diag(s), %d clean false \
                      positive(s)"
        (String.concat "," passes) (List.length hits) (List.length marked_fns) ndiags
        (List.length clean_flagged)
  | Tournament_measured { attack; control; survived; false_positive; confidence; nfaults } ->
      if control then
        Printf.sprintf "control cell: %s"
          (if false_positive then "FALSE POSITIVE on unmarked program" else "clean")
      else
        Printf.sprintf "cell %s: %s (confidence %.2f%s)" attack
          (if survived then "survived" else "killed")
          confidence
          (if nfaults > 0 then Printf.sprintf ", %d fault(s)" nfaults else "")
  | Failed { reason; attempts } -> Printf.sprintf "failed after %d attempt(s): %s" attempts reason

(* ---- outcome (de)serialization for the result cache ----

   Hand-rolled tagged format rather than [Marshal]: decoding untrusted
   spill-file bytes must fail soft (return [None]), and [Marshal] cannot
   promise that. *)

let add_varint buf v =
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7F)));
      go (v lsr 7)
    end
  in
  if v < 0 then invalid_arg "Batch.add_varint: negative";
  go v

let add_str buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_opt buf add = function
  | None -> Buffer.add_char buf '\000'
  | Some v ->
      Buffer.add_char buf '\001';
      add buf v

let add_big buf w = add_str buf (Bignum.to_string w)
let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let encode_outcome o =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "PBO1";
  (match o with
  | Vm_embedded { program; bytes_before; bytes_after } ->
      Buffer.add_char buf 'E';
      add_str buf program;
      add_varint buf bytes_before;
      add_varint buf bytes_after
  | Vm_recognized { value; matched } ->
      Buffer.add_char buf 'R';
      add_opt buf add_big value;
      add_opt buf add_bool matched
  | Audited { passes; marked_fns; flagged_fns; clean_flagged; ndiags } ->
      Buffer.add_char buf 'U';
      let add_list l =
        add_varint buf (List.length l);
        List.iter (add_str buf) l
      in
      add_list passes;
      add_list marked_fns;
      add_list flagged_fns;
      add_list clean_flagged;
      add_varint buf ndiags
  | Tournament_measured { attack; control; survived; false_positive; confidence; nfaults } ->
      Buffer.add_char buf 'T';
      add_str buf attack;
      add_bool buf control;
      add_bool buf survived;
      add_bool buf false_positive;
      (* hex float: exact round-trip through the text form *)
      add_str buf (Printf.sprintf "%h" confidence);
      add_varint buf nfaults
  | Failed { reason; attempts } ->
      Buffer.add_char buf 'F';
      add_str buf reason;
      add_varint buf attempts);
  Buffer.contents buf

exception Malformed

let decode_outcome s =
  let pos = ref 0 in
  let byte () =
    if !pos >= String.length s then raise Malformed;
    let b = Char.code s.[!pos] in
    incr pos;
    b
  in
  let varint () =
    let rec go shift acc =
      let b = byte () in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0
  in
  let str () =
    let n = varint () in
    if n < 0 || !pos + n > String.length s then raise Malformed;
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  let opt read = match byte () with 0 -> None | 1 -> Some (read ()) | _ -> raise Malformed in
  let big () = try Bignum.of_string (str ()) with _ -> raise Malformed in
  let boolean () = match byte () with 0 -> false | 1 -> true | _ -> raise Malformed in
  try
    if String.length s < 5 || String.sub s 0 4 <> "PBO1" then None
    else begin
      pos := 4;
      let o =
        match Char.chr (byte ()) with
        | 'E' ->
            let program = str () in
            let bytes_before = varint () in
            let bytes_after = varint () in
            Vm_embedded { program; bytes_before; bytes_after }
        | 'R' ->
            let value = opt big in
            let matched = opt boolean in
            Vm_recognized { value; matched }
        | 'U' ->
            let lst () = List.init (varint ()) (fun _ -> str ()) in
            let passes = lst () in
            let marked_fns = lst () in
            let flagged_fns = lst () in
            let clean_flagged = lst () in
            let ndiags = varint () in
            Audited { passes; marked_fns; flagged_fns; clean_flagged; ndiags }
        | 'T' ->
            let attack = str () in
            let control = boolean () in
            let survived = boolean () in
            let false_positive = boolean () in
            let confidence =
              match float_of_string_opt (str ()) with Some c -> c | None -> raise Malformed
            in
            let nfaults = varint () in
            Tournament_measured { attack; control; survived; false_positive; confidence; nfaults }
        | 'F' ->
            let reason = str () in
            let attempts = varint () in
            Failed { reason; attempts }
        | _ -> raise Malformed
      in
      if !pos <> String.length s then None else Some o
    end
  with Malformed -> None

(* ---- job execution ---- *)

let now () = Unix.gettimeofday ()

let emit events ev = Option.iter (fun t -> Events.emit t ev) events

let timed ?events ~id ~stage f =
  let t0 = now () in
  let v = f () in
  emit events (Events.Stage_time { id; stage; ms = (now () -. t0) *. 1000.0 });
  v

let default_recognize_fuel = 200_000_000

let match_against expected value =
  Option.map (fun e -> match value with Some v -> Bignum.equal v e | None -> false) expected

(* Every VM job resolves its scheme in the registry ({!Scheme.Builtin});
   composite names ("jwm+gwm") resolve to {!Scheme.Compose} and make the
   double-watermark mode batchable. *)
let scheme_spec (job : Job.t) ~redundancy =
  {
    Scheme.Watermarker.key = job.Job.key;
    bits = job.Job.bits;
    input = job.Job.input;
    seed = job.Job.seed;
    fuel = job.Job.fuel;
    redundancy;
  }

(* The snapshot trace an embedding is planned from: shared, through
   {!Cache.with_trace}, by every fingerprint of a fleet on one host. *)
let snapshot_capture (job : Job.t) program =
  Stackvm.Trace.capture ?fuel:job.Job.fuel ~want_snapshots:true program ~input:job.Job.input

(* A recognition trace is the compiled run's packed branch events
   ({!Stackvm.Trace.record}): the events a recognizer's sink sees when it
   runs the program itself. *)
let recognition_events (job : Job.t) program =
  let fuel = Option.value ~default:default_recognize_fuel job.Job.fuel in
  fst (Stackvm.Trace.record ~fuel program ~input:job.Job.input)

let vm_carrier (job : Job.t) = function
  | Scheme.Watermarker.Vm_program p -> p
  | _ -> failwith (Printf.sprintf "scheme %s embedded a non-VM carrier" job.Job.scheme)

(* Offline recognition over a captured branch stream: the fault plan
   corrupts the replayed stream (salted per job), the corruption is
   surfaced as an event, and the scheme recognizes what survives.
   Returns the recognition and the number of corrupted branch events. *)
let recognize_replayed ?events ~id ~label ~plan ~salt ~capture sink spec =
  let trace = timed ?events ~id ~stage:"trace" capture in
  let trace, nfaults =
    match plan with None -> (trace, 0) | Some plan -> Fault.Inject.branches plan ~salt trace
  in
  if nfaults > 0 then
    emit events
      (Events.Fault_injected
         { id; label; layer = "trace"; detail = Printf.sprintf "%d branch event(s) corrupted" nfaults });
  ( timed ?events ~id ~stage:"recognize" (fun () -> Scheme.Watermarker.recognize_events sink spec trace),
    nfaults )

let compute_vm ?inject ?cache ?events ~id (job : Job.t) program action =
  let (module W) = Scheme.Builtin.find_exn job.Job.scheme in
  if W.caps.Scheme.Watermarker.track <> Scheme.Watermarker.Vm then
    failwith (Printf.sprintf "scheme %s cannot run on the VM track" job.Job.scheme);
  let carrier = Scheme.Watermarker.Vm_program program in
  let embed_here fingerprint spec =
    timed ?events ~id ~stage:"embed" (fun () -> W.embed fingerprint spec carrier)
  in
  match (action : Job.vm_action) with
  | Job.Embed { fingerprint; pieces } ->
      let spec = scheme_spec job ~redundancy:pieces in
      let e =
        match W.embed_traced with
        | Some embed_traced ->
            let capture () = snapshot_capture job program in
            let trace =
              timed ?events ~id ~stage:"trace" (fun () ->
                  match cache with
                  | Some c -> Cache.with_trace ?events c ~key:(Job.trace_digest job) capture
                  | None -> capture ())
            in
            timed ?events ~id ~stage:"embed" (fun () -> embed_traced trace fingerprint spec carrier)
        | None -> embed_here fingerprint spec
      in
      Vm_embedded
        {
          program = Stackvm.Serialize.encode (vm_carrier job e.Scheme.Watermarker.carrier);
          bytes_before = e.Scheme.Watermarker.bytes_before;
          bytes_after = e.Scheme.Watermarker.bytes_after;
        }
  | Job.Recognize { expected } ->
      let spec = scheme_spec job ~redundancy:Scheme.Watermarker.default_redundancy in
      let r, nfaults =
        match W.sink with
        | Some sink ->
            (* the saved branch trace is cached per (program, input, fuel),
               so every recognizer of one artifact shares one run *)
            let capture () = Stackvm.Trace.save_events (recognition_events job program) in
            recognize_replayed ?events ~id ~label:job.Job.label ~plan:inject
              ~salt:(Job.trace_digest job)
              ~capture:(fun () ->
                Stackvm.Trace.load_events
                  (match cache with
                  | Some c -> Cache.with_bytes ?events c ~stage:"trace" ~key:(Job.trace_digest job) capture
                  | None -> capture ()))
              sink spec
        | None -> (timed ?events ~id ~stage:"recognize" (fun () -> W.recognize spec carrier), 0)
      in
      (* degraded: recovered despite injected noise; partial: lost, but
         the scheme still scores some surviving evidence *)
      (match r.Scheme.Watermarker.value with
      | Some _ when nfaults > 0 -> emit events (Events.Counter { name = "recognitions.degraded"; delta = 1 })
      | None when r.Scheme.Watermarker.confidence > 0.0 ->
          emit events (Events.Counter { name = "recognitions.partial"; delta = 1 })
      | _ -> ());
      let value = r.Scheme.Watermarker.value in
      Vm_recognized { value; matched = match_against expected value }
  | Job.Tournament_cell cell ->
      let spec = scheme_spec job ~redundancy:Scheme.Watermarker.default_redundancy in
      let fingerprint = cell.Job.cell_fingerprint in
      (* control cells measure credibility: recognize the clean program,
         unattacked — anything recovered that matches the fingerprint is a
         false positive *)
      let target =
        if cell.Job.cell_control then program
        else vm_carrier job (embed_here fingerprint spec).Scheme.Watermarker.carrier
      in
      let attacked =
        if cell.Job.cell_control || cell.Job.cell_attack = "identity" then target
        else
          match List.assoc_opt cell.Job.cell_attack Vmattacks.Attacks.all with
          | None -> failwith ("unknown attack: " ^ cell.Job.cell_attack)
          | Some attack ->
              timed ?events ~id ~stage:("attack:" ^ cell.Job.cell_attack) (fun () ->
                  attack (Util.Prng.create job.Job.seed) target)
      in
      (* the cell's own plan governs trace corruption (the batch-level
         [inject] still drives crash/fuel/cache faults in [execute]) *)
      let plan = Fault.Inject.make ~seed:cell.Job.cell_fault_seed cell.Job.cell_faults in
      let r, nfaults =
        match W.sink with
        | Some sink when not (Fault.Inject.is_empty plan) ->
            recognize_replayed ?events ~id ~label:job.Job.label ~plan:(Some plan)
              ~salt:(Printf.sprintf "cell:%s:%s" (Job.trace_digest job) cell.Job.cell_attack)
              ~capture:(fun () -> recognition_events job attacked)
              sink spec
        | _ ->
            ( timed ?events ~id ~stage:"recognize" (fun () ->
                  W.recognize spec (Scheme.Watermarker.Vm_program attacked)),
              0 )
      in
      let recovered_fp =
        match r.Scheme.Watermarker.value with Some v -> Bignum.equal v fingerprint | None -> false
      in
      if recovered_fp && nfaults > 0 then
        emit events (Events.Counter { name = "recognitions.degraded"; delta = 1 });
      Tournament_measured
        {
          attack = cell.Job.cell_attack;
          control = cell.Job.cell_control;
          survived = (not cell.Job.cell_control) && recovered_fp;
          false_positive = cell.Job.cell_control && recovered_fp;
          confidence = r.Scheme.Watermarker.confidence;
          nfaults;
        }
  | Job.Audit { fingerprint } ->
      let spec = scheme_spec job ~redundancy:Scheme.Watermarker.default_redundancy in
      let marked = vm_carrier job (embed_here fingerprint spec).Scheme.Watermarker.carrier in
      let passes =
        match
          List.filter
            (fun p -> List.mem p Analysis.Locator.known_passes)
            W.caps.Scheme.Watermarker.locator_passes
        with
        | [] -> Analysis.Locator.default_passes
        | ps -> ps
      in
      (* ground truth: the functions the embedder added or rewrote *)
      let clean_code = Hashtbl.create 16 in
      Array.iter
        (fun (f : Stackvm.Program.func) -> Hashtbl.replace clean_code f.Stackvm.Program.name f)
        program.Stackvm.Program.funcs;
      let marked_fns =
        Array.to_list marked.Stackvm.Program.funcs
        |> List.filter_map (fun (f : Stackvm.Program.func) ->
               match Hashtbl.find_opt clean_code f.Stackvm.Program.name with
               | Some g when g = f -> None
               | _ -> Some f.Stackvm.Program.name)
        |> List.sort compare
      in
      let report =
        timed ?events ~id ~stage:"audit" (fun () -> Analysis.Locator.run ~passes marked)
      in
      let clean_report = Analysis.Locator.run ~passes program in
      Audited
        {
          passes;
          marked_fns;
          flagged_fns = report.Analysis.Locator.flagged;
          clean_flagged = clean_report.Analysis.Locator.flagged;
          ndiags = List.length report.Analysis.Locator.diags;
        }

let default_native_passes = 5

(* Extract the watermark from [binary], optionally through a noisy tracer
   whose observations [plan] garbles: several independently-garbled views
   of one deterministic observation log, majority-voted.  Returns the
   recovered value with the extractor's confidence in it. *)
let native_extract_value ?events ~id ~label ~salt ~plan binary ~begin_addr ~end_addr ~input =
  match plan with
  | None -> (
      match Nwm.Extract.extract binary ~begin_addr ~end_addr ~input with
      | Ok ex -> (Some (Nwm.Extract.watermark ex), 1.0)
      | Error _ -> (None, 0.0))
  | Some plan ->
      let per_pass = Hashtbl.create 4 in
      let g ~pass v =
        let f =
          match Hashtbl.find_opt per_pass pass with
          | Some f -> f
          | None ->
              let f =
                Option.value ~default:Fun.id
                  (Fault.Inject.garble plan ~salt:(Printf.sprintf "obs:%s:%d" salt pass))
              in
              Hashtbl.replace per_pass pass f;
              f
        in
        f v
      in
      emit events
        (Events.Fault_injected
           {
             id;
             label;
             layer = "obs";
             detail =
               Printf.sprintf "garbled tracer observations (%d passes, majority vote)"
                 default_native_passes;
           });
      let d =
        Nwm.Extract.extract_degraded ~passes:default_native_passes ~garble:g binary ~begin_addr
          ~end_addr ~input
      in
      (match d.Nwm.Extract.value with
      | Some _ when d.Nwm.Extract.agreement < 1.0 ->
          emit events (Events.Counter { name = "recognitions.degraded"; delta = 1 })
      | None -> emit events (Events.Counter { name = "recognitions.partial"; delta = 1 })
      | Some _ -> ());
      (d.Nwm.Extract.value, d.Nwm.Extract.confidence)

let compute_native ?events ~id (job : Job.t) program action =
  if job.Job.scheme <> Job.default_native_scheme then
    failwith (Printf.sprintf "scheme %s cannot run on the native track" job.Job.scheme);
  match (action : Job.native_action) with
  | Job.Native_tournament_cell cell ->
      let fingerprint = cell.Job.cell_fingerprint in
      (* the embed always runs — even control cells need the region span
         the extractor will probe *)
      let report =
        timed ?events ~id ~stage:"native-embed" (fun () ->
            Nwm.Embed.embed ~seed:job.Job.seed ~tamper_proof:true ?fuel:job.Job.fuel
              ~watermark:fingerprint ~bits:job.Job.bits ~training_input:job.Job.input program)
      in
      let begin_addr = report.Nwm.Embed.begin_addr and end_addr = report.Nwm.Embed.end_addr in
      let target =
        if cell.Job.cell_control then
          (* credibility control: probe the clean binary over the span the
             embedder would have used *)
          Nativesim.Asm.assemble program
        else report.Nwm.Embed.binary
      in
      let attacked =
        if cell.Job.cell_control || cell.Job.cell_attack = "identity" then target
        else
          let rng = Util.Prng.create job.Job.seed in
          timed ?events ~id ~stage:("attack:" ^ cell.Job.cell_attack) (fun () ->
              match cell.Job.cell_attack with
              | "noop-insertion" -> Nattacks.Attacks.noop_insertion ~rate:0.05 rng target
              | "branch-sense-inversion" ->
                  Nattacks.Attacks.branch_sense_inversion ~fraction:1.0 rng target
              | "double-watermark" ->
                  let seed2 = Int64.lognot job.Job.seed in
                  let second = Bignum.random_bits (Util.Prng.create seed2) job.Job.bits in
                  Nattacks.Attacks.double_watermark ~seed:seed2 ~watermark:second
                    ~bits:job.Job.bits ~training_input:job.Job.input target
              | "bypass" ->
                  Nattacks.Attacks.bypass rng target ~begin_addr ~end_addr ~input:job.Job.input
              | "reroute" ->
                  Nattacks.Attacks.reroute rng target ~begin_addr ~end_addr ~input:job.Job.input
              | "static-strip" -> (Nattacks.Static_strip.strip target).Nattacks.Static_strip.binary
              | a -> failwith ("unknown native attack: " ^ a))
      in
      (* the cell's own plan drives the noisy-tracer extraction *)
      let cell_plan = Fault.Inject.make ~seed:cell.Job.cell_fault_seed cell.Job.cell_faults in
      let plan =
        if Fault.Inject.garble cell_plan ~salt:"probe" <> None then Some cell_plan else None
      in
      let value, confidence =
        timed ?events ~id ~stage:"native-extract" (fun () ->
            native_extract_value ?events ~id ~label:job.Job.label
              ~salt:(Job.trace_digest job ^ ":" ^ cell.Job.cell_attack)
              ~plan attacked ~begin_addr ~end_addr ~input:job.Job.input)
      in
      let recovered_fp =
        match value with Some v -> Bignum.equal v fingerprint | None -> false
      in
      Tournament_measured
        {
          attack = cell.Job.cell_attack;
          control = cell.Job.cell_control;
          survived = (not cell.Job.cell_control) && recovered_fp;
          false_positive = cell.Job.cell_control && recovered_fp;
          confidence;
          nfaults = (if Option.is_some plan then 1 else 0);
        }
  | Job.Native_audit { fingerprint } ->
      let report =
        timed ?events ~id ~stage:"native-embed" (fun () ->
            Nwm.Embed.embed ~seed:job.Job.seed ~tamper_proof:true ?fuel:job.Job.fuel
              ~watermark:fingerprint ~bits:job.Job.bits ~training_input:job.Job.input program)
      in
      let clean_binary = Nativesim.Asm.assemble program in
      let clean_diags = Analysis.Nlint.lint clean_binary in
      let marked_diags =
        timed ?events ~id ~stage:"audit" (fun () -> Analysis.Nlint.lint report.Nwm.Embed.binary)
      in
      (* the native track has no function granularity: the embedded
         region plays the role of the single "marked function" *)
      let in_region (d : Analysis.Diag.t) =
        match d.Analysis.Diag.loc with
        | Analysis.Diag.Native { addr } ->
            addr >= report.Nwm.Embed.begin_addr && addr < report.Nwm.Embed.end_addr
        | _ -> false
      in
      Audited
        {
          passes = [ "nlint" ];
          marked_fns = [ "region" ];
          flagged_fns = (if List.exists in_region marked_diags then [ "region" ] else []);
          clean_flagged = (if clean_diags <> [] then [ "binary" ] else []);
          ndiags = List.length marked_diags;
        }

(* ---- retry policy, deadline budget, circuit breaker ---- *)

type policy = {
  retries : int;
  backoff_ms : float;
  backoff_factor : float;
  max_backoff_ms : float;
  fuel_escalation : float;
  deadline_ms : float option;
  breaker_threshold : int;
}

let default_policy =
  {
    retries = 0;
    backoff_ms = 0.0;
    backoff_factor = 2.0;
    max_backoff_ms = 250.0;
    fuel_escalation = 1.0;
    deadline_ms = None;
    breaker_threshold = 0;
  }

let backoff_delay policy ~attempt =
  if policy.backoff_ms <= 0.0 then 0.0
  else
    Float.min policy.max_backoff_ms
      (policy.backoff_ms *. (policy.backoff_factor ** float_of_int (attempt - 1)))

(* The breaker is keyed by the job's program digest (its spec identity up
   to action parameters): after [threshold] consecutive crash-class
   failures of one spec, later jobs on that spec fail fast while their
   peers proceed.  A success resets the count. *)
type breaker = {
  b_mutex : Mutex.t;
  b_threshold : int;
  b_consecutive : (string, int) Hashtbl.t;
  b_open : (string, unit) Hashtbl.t;
}

let breaker_create ~threshold =
  {
    b_mutex = Mutex.create ();
    b_threshold = threshold;
    b_consecutive = Hashtbl.create 8;
    b_open = Hashtbl.create 8;
  }

let breaker_blocked br key =
  Mutex.lock br.b_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock br.b_mutex) (fun () -> Hashtbl.mem br.b_open key)

let breaker_note ?events br ~label key ~crashed =
  Mutex.lock br.b_mutex;
  let trip =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock br.b_mutex)
      (fun () ->
        if not crashed then begin
          Hashtbl.remove br.b_consecutive key;
          None
        end
        else begin
          let n = 1 + Option.value ~default:0 (Hashtbl.find_opt br.b_consecutive key) in
          Hashtbl.replace br.b_consecutive key n;
          if n >= br.b_threshold && not (Hashtbl.mem br.b_open key) then begin
            Hashtbl.replace br.b_open key ();
            Some n
          end
          else None
        end)
  in
  Option.iter (fun failures -> emit events (Events.Breaker_open { label; key; failures })) trip

exception Injected_crash

(* an active fault plan changes what a job computes, so its results must
   not share cache entries with clean runs of the same spec *)
let result_key ?inject job =
  match inject with
  | Some plan -> Digest.to_hex (Digest.string (Job.digest job ^ "+" ^ Fault.Inject.describe plan))
  | None -> Job.digest job

let () =
  Printexc.register_printer (function Injected_crash -> Some "injected worker crash" | _ -> None)

let execute ?(policy = default_policy) ?inject ?breaker ?deadline_at ?cache ?events ~id
    (job : Job.t) =
  let t0 = now () in
  emit events (Events.Job_start { id; label = job.Job.label; domain = (Domain.self () :> int) });
  let finish outcome ~attempts ~from_cache =
    let ms = (now () -. t0) *. 1000.0 in
    let is_ok = match outcome with Failed _ -> false | _ -> true in
    emit events
      (Events.Job_finish
         {
           id;
           label = job.Job.label;
           ok = is_ok;
           detail = describe_outcome outcome;
           ms;
           attempts;
           cached = from_cache;
         });
    { job; outcome; ms; attempts; from_cache }
  in
  let stage = Job.kind job in
  let digest = lazy (result_key ?inject job) in
  let over_deadline () = match deadline_at with Some t -> now () >= t | None -> false in
  let cached_outcome =
    match cache with
    | None -> None
    | Some c ->
        Option.bind (Cache.find_bytes ?events c ~stage ~key:(Lazy.force digest)) decode_outcome
  in
  match cached_outcome with
  | Some outcome -> finish outcome ~attempts:0 ~from_cache:true
  | None ->
      let spec_key = Job.program_digest job in
      if (match breaker with Some br -> breaker_blocked br spec_key | None -> false) then begin
        emit events (Events.Counter { name = "breaker.short_circuits"; delta = 1 });
        finish
          (Failed { reason = "circuit breaker open for this job spec"; attempts = 0 })
          ~attempts:0 ~from_cache:false
      end
      else if over_deadline () then
        finish (Failed { reason = "batch deadline exhausted"; attempts = 0 }) ~attempts:0 ~from_cache:false
      else begin
        (* a fuel-cut fault shrinks the base budget once; escalation then
           regrows it per retry, so a transiently starved job can recover *)
        let base_fuel =
          match inject with
          | None -> job.Job.fuel
          | Some plan ->
              let cut = Fault.Inject.adjust_fuel plan job.Job.fuel in
              if cut <> job.Job.fuel then
                emit events
                  (Events.Fault_injected
                     {
                       id;
                       label = job.Job.label;
                       layer = "fuel";
                       detail =
                         Printf.sprintf "fuel budget cut to %s"
                           (match cut with Some f -> string_of_int f | None -> "unlimited");
                     });
              cut
        in
        let job_for_attempt n =
          match base_fuel with
          | Some f when policy.fuel_escalation > 1.0 && n > 1 ->
              let scaled = float_of_int f *. (policy.fuel_escalation ** float_of_int (n - 1)) in
              { job with Job.fuel = Some (int_of_float (Float.min scaled 1e15)) }
          | fuel -> { job with Job.fuel }
        in
        let compute n =
          (match inject with
          | Some plan
            when Fault.Inject.crash_decision plan ~salt:(Printf.sprintf "crash:%s:%d" (Lazy.force digest) n)
            ->
              emit events
                (Events.Fault_injected
                   {
                     id;
                     label = job.Job.label;
                     layer = "crash";
                     detail = Printf.sprintf "worker crash on attempt %d" n;
                   });
              raise Injected_crash
          | _ -> ());
          let j = job_for_attempt n in
          match j.Job.payload with
          | Job.Vm { program; action } -> compute_vm ?inject ?cache ?events ~id j program action
          | Job.Native { program; action } -> compute_native ?events ~id j program action
        in
        let note_crash crashed =
          match breaker with
          | Some br -> breaker_note ?events br ~label:job.Job.label spec_key ~crashed
          | None -> ()
        in
        let rec attempt n =
          match compute n with
          | outcome ->
              note_crash false;
              Option.iter
                (fun c ->
                  let bytes = encode_outcome outcome in
                  let bytes =
                    match inject with
                    | None -> bytes
                    | Some plan ->
                        let corrupted, fired =
                          Fault.Inject.cache_entry plan ~salt:("cache:" ^ Lazy.force digest) bytes
                        in
                        if fired then
                          emit events
                            (Events.Fault_injected
                               {
                                 id;
                                 label = job.Job.label;
                                 layer = "cache";
                                 detail = "stored result entry corrupted";
                               });
                        corrupted
                  in
                  Cache.store_bytes ?events c ~stage ~key:(Lazy.force digest) bytes)
                cache;
              finish outcome ~attempts:n ~from_cache:false
          | exception e ->
              note_crash true;
              let reason = Printexc.to_string e in
              if n > policy.retries || over_deadline () then
                finish (Failed { reason; attempts = n }) ~attempts:n ~from_cache:false
              else begin
                let backoff_ms = backoff_delay policy ~attempt:n in
                emit events (Events.Job_retry { id; label = job.Job.label; attempt = n; reason; backoff_ms });
                if backoff_ms > 0.0 then Unix.sleepf (backoff_ms /. 1000.0);
                attempt (n + 1)
              end
        in
        attempt 1
      end

(* Capture each distinct embed trace once, up front, so concurrently
   starting jobs on the same (program, input) share it instead of racing
   into duplicate captures.  Only schemes that embed from a trace are
   prewarmed; an unknown scheme is left to fail inside [execute].  Jobs
   whose finished result is already cached are skipped — a warm re-run
   must stay trace-free. *)
let embeds_from_trace scheme =
  match Scheme.Builtin.find scheme with
  | Some (module W : Scheme.Watermarker.WATERMARKER) -> W.embed_traced <> None
  | None -> false

let prewarm ~domains ?inject ?cache ?events jobs =
  match cache with
  | None -> ()
  | Some c ->
      let distinct = Hashtbl.create 8 in
      List.iter
        (fun (j : Job.t) ->
          match j.Job.payload with
          | Job.Vm { program; action = Job.Embed _ }
            when embeds_from_trace j.Job.scheme
                 && not (Cache.mem_bytes c ~stage:(Job.kind j) ~key:(result_key ?inject j)) ->
              let tk = Job.trace_digest j in
              if not (Hashtbl.mem distinct tk) then
                Hashtbl.replace distinct tk (fun () ->
                    ignore (Cache.with_trace ?events c ~key:tk (fun () -> snapshot_capture j program)))
          | _ -> ())
        jobs;
      let thunks = Hashtbl.fold (fun _ thunk acc -> thunk :: acc) distinct [] in
      if thunks <> [] then ignore (Pool.run_list ~domains thunks)

let run ?(domains = 1) ?retries ?policy ?inject ?cache ?events jobs =
  let policy =
    match (policy, retries) with
    | Some p, Some r -> { p with retries = r }
    | Some p, None -> p
    | None, Some r -> { default_policy with retries = r }
    | None, None -> default_policy
  in
  let inject = match inject with Some p when not (Fault.Inject.is_empty p) -> Some p | _ -> None in
  let t0 = now () in
  emit events (Events.Batch_start { jobs = List.length jobs; domains = max 1 domains });
  prewarm ~domains ?inject ?cache ?events jobs;
  let deadline_at = Option.map (fun ms -> t0 +. (ms /. 1000.0)) policy.deadline_ms in
  let breaker =
    if policy.breaker_threshold > 0 then Some (breaker_create ~threshold:policy.breaker_threshold)
    else None
  in
  let thunks =
    List.mapi
      (fun id job ->
        fun () -> execute ~policy ?inject ?breaker ?deadline_at ?cache ?events ~id job)
      jobs
  in
  let results =
    List.map2
      (fun job -> function
        | Ok r -> r
        | Error e ->
            (* a worker blew up outside [execute]'s own isolation; keep the
               batch alive and report the job as failed *)
            { job; outcome = Failed { reason = Printexc.to_string e; attempts = 1 }; ms = 0.0;
              attempts = 1; from_cache = false })
      jobs
      (Pool.run_list ~domains thunks)
  in
  let failed = List.length (List.filter (fun r -> match r.outcome with Failed _ -> true | _ -> false) results) in
  emit events
    (Events.Batch_finish { ok = List.length results - failed; failed; ms = (now () -. t0) *. 1000.0 });
  results
