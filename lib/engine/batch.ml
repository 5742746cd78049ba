type outcome =
  | Embedded of { program : string; bytes_before : int; bytes_after : int }
  | Recognized of { value : Bignum.t option; matched : bool option }
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

type result = {
  job : Job.t;
  outcome : outcome;
  built : Scheme.Watermarker.carrier option;
  ms : float;
  attempts : int;
  from_cache : bool;
}

let ok r =
  match r.outcome with
  | Failed _ -> false
  | Recognized { value; matched } -> value <> None && matched <> Some false
  | Embedded _ | Audited _ -> true
  (* a killed mark is a measurement, not a job failure; only a false
     positive on a control cell counts against the batch *)
  | Tournament_measured { false_positive; _ } -> not false_positive

let describe_outcome = function
  | Embedded { bytes_before; bytes_after; _ } ->
      Printf.sprintf "embedded (%d -> %d bytes)" bytes_before bytes_after
  | Recognized { value; matched } -> (
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

module V = Util.Varint

let add_opt buf add = function
  | None -> Buffer.add_char buf '\000'
  | Some v ->
      Buffer.add_char buf '\001';
      add buf v

let add_big buf w = V.add_string buf (Bignum.to_string w)
let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let encode_outcome o =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "PBO1";
  (match o with
  | Embedded { program; bytes_before; bytes_after } ->
      Buffer.add_char buf 'E';
      V.add_string buf program;
      V.add buf bytes_before;
      V.add buf bytes_after
  | Recognized { value; matched } ->
      Buffer.add_char buf 'R';
      add_opt buf add_big value;
      add_opt buf add_bool matched
  | Audited { passes; marked_fns; flagged_fns; clean_flagged; ndiags } ->
      Buffer.add_char buf 'U';
      let add_list l =
        V.add buf (List.length l);
        List.iter (V.add_string buf) l
      in
      add_list passes;
      add_list marked_fns;
      add_list flagged_fns;
      add_list clean_flagged;
      V.add buf ndiags
  | Tournament_measured { attack; control; survived; false_positive; confidence; nfaults } ->
      Buffer.add_char buf 'T';
      V.add_string buf attack;
      add_bool buf control;
      add_bool buf survived;
      add_bool buf false_positive;
      (* hex float: exact round-trip through the text form *)
      V.add_string buf (Printf.sprintf "%h" confidence);
      V.add buf nfaults
  | Failed { reason; attempts } ->
      Buffer.add_char buf 'F';
      V.add_string buf reason;
      V.add buf attempts);
  Buffer.contents buf

let decode_outcome s =
  let r = V.reader ~pos:4 s in
  let malformed () = raise (V.Malformed "bad outcome") in
  let varint () = V.varint r in
  let str () = V.string r in
  let opt read = match V.byte r with 0 -> None | 1 -> Some (read ()) | _ -> malformed () in
  let big () = try Bignum.of_string (str ()) with _ -> malformed () in
  let boolean () = match V.byte r with 0 -> false | 1 -> true | _ -> malformed () in
  try
    if String.length s < 5 || String.sub s 0 4 <> "PBO1" then None
    else begin
      let o =
        match Char.chr (V.byte r) with
        | 'E' ->
            let program = str () in
            let bytes_before = varint () in
            let bytes_after = varint () in
            Embedded { program; bytes_before; bytes_after }
        | 'R' ->
            let value = opt big in
            let matched = opt boolean in
            Recognized { value; matched }
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
              match float_of_string_opt (str ()) with Some c -> c | None -> malformed ()
            in
            let nfaults = varint () in
            Tournament_measured { attack; control; survived; false_positive; confidence; nfaults }
        | 'F' ->
            let reason = str () in
            let attempts = varint () in
            Failed { reason; attempts }
        | _ -> malformed ()
      in
      if V.remaining r <> 0 then None else Some o
    end
  with V.Malformed _ -> None

(* ---- job execution ---- *)

let now () = Unix.gettimeofday ()

let emit events ev = Option.iter (fun t -> Events.emit t ev) events

let timed ?events ~id ~stage f =
  match events with
  | None -> f ()
  | Some t ->
      let t0 = now () in
      let v = f () in
      Events.emit t (Events.Stage_time { id; stage; ms = (now () -. t0) *. 1000.0 });
      v

let match_against expected value =
  Option.map (fun e -> match value with Some v -> Bignum.equal v e | None -> false) expected

(* Every job resolves its scheme in the registry ({!Scheme.Builtin});
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

(* Offline recognition over a captured branch stream: the fault plan
   corrupts the replayed stream (salted per job), the corruption is
   surfaced as an event, and the scheme recognizes what survives.
   Returns the recognition and the number of corrupted branch events.  A
   program the engine refuses has no stream; [refused] recognizes it
   instead, so the scheme reports why, as the CLI does. *)
let recognize_replayed ?events ~id ~label ~plan ~salt ~capture ~refused sink spec =
  match timed ?events ~id ~stage:"trace" capture with
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception _ -> (timed ?events ~id ~stage:"recognize" refused, 0)
  | trace ->
      let trace, nfaults =
        match plan with None -> (trace, 0) | Some plan -> Fault.Inject.branches plan ~salt trace
      in
      if nfaults > 0 then
        emit events
          (Events.Fault_injected
             { id; label; layer = "trace"; detail = Printf.sprintf "%d branch event(s) corrupted" nfaults });
      ( timed ?events ~id ~stage:"recognize" (fun () -> Scheme.Watermarker.recognize_events sink spec trace),
        nfaults )

(* Recognition through the scheme's noisy tracer: every observation pass
   gets its own garbler, salted per pass, so the views are independent
   and reproducible. *)
let recognize_noisy ?events ~id ~label ~plan ~salt rg ~aux spec carrier =
  let per_pass = Hashtbl.create 4 in
  let garble ~pass v =
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
  let g = rg ~garble ?aux spec carrier in
  emit events
    (Events.Fault_injected
       {
         id;
         label;
         layer = "obs";
         detail =
           Printf.sprintf "garbled tracer observations (%d passes, majority vote)"
             g.Scheme.Watermarker.views;
       });
  (match g.Scheme.Watermarker.recovered.Scheme.Watermarker.value with
  | Some _ when not g.Scheme.Watermarker.unanimous ->
      emit events (Events.Counter { name = "recognitions.degraded"; delta = 1 })
  | None -> emit events (Events.Counter { name = "recognitions.partial"; delta = 1 })
  | Some _ -> ());
  g.Scheme.Watermarker.recovered

(* A host [prepare] refuses (it traps or runs out of fuel on the input, or
   runs no block) is refused alike for every job on it, as deterministic
   as a prepared host: the refusal is cached in its place, so a bad host
   is traced once per batch, like a good one, and every job on it fails
   with the reason [prepare] gave. *)
let prepare_once prepare spec carrier =
  match prepare spec carrier with
  | embed -> embed
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception e -> fun _ _ -> raise e

let compute ?inject ?cache ?events ~id ~trace_key (job : Job.t) =
  let (module W) = Scheme.Builtin.find_exn job.Job.scheme in
  let carrier = job.Job.program in
  let track = Scheme.Watermarker.carrier_track carrier in
  if W.caps.Scheme.Watermarker.track <> track then
    failwith
      (Printf.sprintf "scheme %s cannot run on the %s track" job.Job.scheme
         (Scheme.Watermarker.track_to_string track));
  let spec = scheme_spec job ~redundancy:Scheme.Watermarker.default_redundancy in
  let embed_here fingerprint spec =
    timed ?events ~id ~stage:"embed" (fun () -> W.embed fingerprint spec carrier)
  in
  match job.Job.action with
  | Job.Embed { fingerprint; pieces } ->
      let spec = { spec with Scheme.Watermarker.redundancy = pieces } in
      let e =
        match W.prepare with
        | Some prepare ->
            (* the prepared host: shared, through {!Cache.with_prepared},
               by every fingerprint of a fleet *)
            let host () = prepare_once prepare spec carrier in
            let embed =
              timed ?events ~id ~stage:"trace" (fun () ->
                  match cache with
                  | Some c -> Cache.with_prepared ?events c ~key:trace_key host
                  | None -> host ())
            in
            timed ?events ~id ~stage:"embed" (fun () -> embed fingerprint spec)
        | None -> embed_here fingerprint spec
      in
      ( Embedded
          {
            program = Scheme.Track.encode e.Scheme.Watermarker.carrier;
            bytes_before = e.Scheme.Watermarker.bytes_before;
            bytes_after = e.Scheme.Watermarker.bytes_after;
          },
        Some e.Scheme.Watermarker.carrier )
  | Job.Recognize { expected } ->
      let r, nfaults =
        match W.sink with
        | Some sink ->
            (* the saved branch trace is cached per (program, input, fuel),
               so every recognizer of one artifact shares one run *)
            let capture () = Stackvm.Trace.save_events (Scheme.Track.branch_events spec carrier) in
            recognize_replayed ?events ~id ~label:job.Job.label ~plan:inject
              ~salt:trace_key
              ~capture:(fun () ->
                Stackvm.Trace.load_events
                  (match cache with
                  | Some c -> Cache.with_bytes ?events c ~stage:"trace" ~key:trace_key capture
                  | None -> capture ()))
              ~refused:(fun () -> W.recognize spec carrier)
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
      (Recognized { value; matched = match_against expected value }, None)
  | Job.Tournament_cell cell ->
      let fingerprint = cell.Job.cell_fingerprint in
      (* control cells measure credibility: recognize the clean program,
         unattacked — anything recovered that matches the fingerprint is a
         false positive.  A non-blind scheme still embeds, for the hint
         its recognizer needs (nwm probes the clean binary over the
         region the embedder would have used). *)
      let e =
        if cell.Job.cell_control && W.caps.Scheme.Watermarker.blind then None
        else Some (embed_here fingerprint spec)
      in
      let aux = Option.map (fun e -> e.Scheme.Watermarker.aux) e in
      let attacked =
        match e with
        | Some e when not cell.Job.cell_control ->
            if cell.Job.cell_attack = "identity" then e.Scheme.Watermarker.carrier
            else
              timed ?events ~id ~stage:("attack:" ^ cell.Job.cell_attack) (fun () ->
                  Scheme.Track.attack cell.Job.cell_attack spec ~aux:e.Scheme.Watermarker.aux
                    e.Scheme.Watermarker.carrier)
        | _ -> carrier
      in
      (* the cell's own plan governs trace corruption and tracer garbling
         (the batch-level [inject] still drives crash/fuel/cache faults in
         [execute]) *)
      let plan = Fault.Inject.make ~seed:cell.Job.cell_fault_seed cell.Job.cell_faults in
      let salt = Printf.sprintf "%s:%s" trace_key cell.Job.cell_attack in
      let recovers (r : Scheme.Watermarker.recovered) =
        match r.value with Some v -> Bignum.equal v fingerprint | None -> false
      in
      let r, nfaults =
        match (W.sink, W.recognize_garbled) with
        | Some sink, _ when not (Fault.Inject.is_empty plan) ->
            let r, nfaults =
              recognize_replayed ?events ~id ~label:job.Job.label ~plan:(Some plan)
                ~salt:("cell:" ^ salt)
                ~capture:(fun () -> Scheme.Track.branch_events spec attacked)
                ~refused:(fun () -> W.recognize ?aux spec attacked)
                sink spec
            in
            if recovers r && nfaults > 0 then
              emit events (Events.Counter { name = "recognitions.degraded"; delta = 1 });
            (r, nfaults)
        | _, Some rg when Fault.Inject.garble plan ~salt:"probe" <> None ->
            ( timed ?events ~id ~stage:"recognize" (fun () ->
                  recognize_noisy ?events ~id ~label:job.Job.label ~plan ~salt rg ~aux spec attacked),
              1 )
        | _ -> (timed ?events ~id ~stage:"recognize" (fun () -> W.recognize ?aux spec attacked), 0)
      in
      let recovered_fp = recovers r in
      ( Tournament_measured
          {
            attack = cell.Job.cell_attack;
            control = cell.Job.cell_control;
            survived = (not cell.Job.cell_control) && recovered_fp;
            false_positive = cell.Job.cell_control && recovered_fp;
            confidence = r.Scheme.Watermarker.confidence;
            nfaults;
          },
        None )
  | Job.Audit { fingerprint } ->
      let e = embed_here fingerprint spec in
      let l =
        timed ?events ~id ~stage:"audit" (fun () ->
            Scheme.Track.locate ~passes:W.caps.Scheme.Watermarker.locator_passes ~clean:carrier e)
      in
      ( Audited
          {
            passes = l.Scheme.Track.passes;
            marked_fns = l.Scheme.Track.marked;
            flagged_fns = l.Scheme.Track.flagged;
            clean_flagged = l.Scheme.Track.clean_flagged;
            ndiags = l.Scheme.Track.ndiags;
          },
        None )

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
let result_key ?inject digest =
  match inject with
  | Some plan -> Digest.to_hex (Digest.string (digest ^ "+" ^ Fault.Inject.describe plan))
  | None -> digest

(* A job's content addresses, computed once per batch before any job runs
   and shared by [prewarm] and [execute]. *)
type keys = {
  program_bytes : string;  (* {!Job.program_bytes}, one string per distinct carrier *)
  result : string;  (* the result-cache key: {!Job.digest}, salted by the fault plan *)
  trace : string;  (* {!Job.trace_digest} *)
}

(* carriers by identity: the jobs of a fleet share one host value *)
module Carriers = Hashtbl.Make (struct
  type t = Scheme.Watermarker.carrier

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let job_keys ?inject jobs =
  let encoded = Carriers.create 8 in
  List.map
    (fun (j : Job.t) ->
      let program_bytes =
        match Carriers.find_opt encoded j.Job.program with
        | Some b -> b
        | None ->
            let b = Job.program_bytes j in
            Carriers.replace encoded j.Job.program b;
            b
      in
      {
        program_bytes;
        result = result_key ?inject (Job.digest ~program_bytes j);
        trace = Job.trace_digest ~program_bytes j;
      })
    jobs

let () =
  Printexc.register_printer (function Injected_crash -> Some "injected worker crash" | _ -> None)

let execute ?(policy = default_policy) ?inject ?breaker ?deadline_at ?cache ?events ~id ~keys
    (job : Job.t) =
  let t0 = now () in
  Option.iter
    (fun t -> Events.emit t (Events.Job_start { id; label = job.Job.label; domain = (Domain.self () :> int) }))
    events;
  let finish ?built outcome ~attempts ~from_cache =
    let ms = (now () -. t0) *. 1000.0 in
    Option.iter
      (fun t ->
        Events.emit t
          (Events.Job_finish
             {
               id;
               label = job.Job.label;
               ok = (match outcome with Failed _ -> false | _ -> true);
               detail = describe_outcome outcome;
               ms;
               attempts;
               cached = from_cache;
             }))
      events;
    { job; outcome; built; ms; attempts; from_cache }
  in
  let stage = Job.kind job in
  let over_deadline () = match deadline_at with Some t -> now () >= t | None -> false in
  let cached_outcome =
    match cache with
    | None -> None
    | Some c -> Option.bind (Cache.find_bytes ?events c ~stage ~key:keys.result) decode_outcome
  in
  match cached_outcome with
  | Some outcome -> finish outcome ~attempts:0 ~from_cache:true
  | None ->
      let breaker =
        Option.map (fun br -> (br, Job.program_digest ~program_bytes:keys.program_bytes job)) breaker
      in
      if (match breaker with Some (br, spec_key) -> breaker_blocked br spec_key | None -> false) then begin
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
            when Fault.Inject.crash_decision plan ~salt:(Printf.sprintf "crash:%s:%d" keys.result n)
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
          let attempt_job = job_for_attempt n in
          let trace_key =
            if attempt_job.Job.fuel = job.Job.fuel then keys.trace
            else Job.trace_digest ~program_bytes:keys.program_bytes attempt_job
          in
          compute ?inject ?cache ?events ~id ~trace_key attempt_job
        in
        let note_crash crashed =
          match breaker with
          | Some (br, spec_key) -> breaker_note ?events br ~label:job.Job.label spec_key ~crashed
          | None -> ()
        in
        let rec attempt n =
          match compute n with
          | outcome, built ->
              note_crash false;
              Option.iter
                (fun c ->
                  let bytes = encode_outcome outcome in
                  let bytes =
                    match inject with
                    | None -> bytes
                    | Some plan ->
                        let corrupted, fired =
                          Fault.Inject.cache_entry plan ~salt:("cache:" ^ keys.result) bytes
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
                  Cache.store_bytes ?events c ~stage ~key:keys.result bytes)
                cache;
              finish ?built outcome ~attempts:n ~from_cache:false
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

(* Prepare each distinct embedding host once, up front, so concurrently
   starting jobs on the same (program, input, fuel) share it instead of
   racing into duplicate traces.  Only schemes with a [prepare] hook are
   prewarmed; an unknown scheme is left to fail inside [execute].  Jobs
   whose finished result is already cached are skipped — a warm re-run
   must stay trace-free. *)
let prewarm ~domains ?cache ?events jobs =
  match cache with
  | None -> ()
  | Some c ->
      let distinct = Hashtbl.create 8 in
      List.iter
        (fun ((j : Job.t), keys) ->
          match (j.Job.action, Scheme.Builtin.find j.Job.scheme) with
          | Job.Embed _, Some (module W : Scheme.Watermarker.WATERMARKER) -> (
              match W.prepare with
              | Some prepare
                when (not (Hashtbl.mem distinct keys.trace))
                     && not (Cache.mem_bytes c ~stage:(Job.kind j) ~key:keys.result) ->
                  let spec = scheme_spec j ~redundancy:Scheme.Watermarker.default_redundancy in
                  Hashtbl.replace distinct keys.trace (fun () ->
                      let (_ : Scheme.Watermarker.prepared) =
                        Cache.with_prepared ?events c ~key:keys.trace (fun () ->
                            prepare_once prepare spec j.Job.program)
                      in
                      ())
              | _ -> ())
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
  let jobs = List.combine jobs (job_keys ?inject jobs) in
  prewarm ~domains ?cache ?events jobs;
  let deadline_at = Option.map (fun ms -> t0 +. (ms /. 1000.0)) policy.deadline_ms in
  let breaker =
    if policy.breaker_threshold > 0 then Some (breaker_create ~threshold:policy.breaker_threshold)
    else None
  in
  let thunks =
    List.mapi
      (fun id (job, keys) ->
        fun () -> execute ~policy ?inject ?breaker ?deadline_at ?cache ?events ~id ~keys job)
      jobs
  in
  let results =
    List.map2
      (fun (job, _) -> function
        | Ok r -> r
        | Error e ->
            (* a worker blew up outside [execute]'s own isolation; keep the
               batch alive and report the job as failed *)
            {
              job;
              outcome = Failed { reason = Printexc.to_string e; attempts = 1 };
              built = None;
              ms = 0.0;
              attempts = 1;
              from_cache = false;
            })
      jobs
      (Pool.run_list ~domains thunks)
  in
  let failed = List.length (List.filter (fun r -> match r.outcome with Failed _ -> true | _ -> false) results) in
  emit events
    (Events.Batch_finish { ok = List.length results - failed; failed; ms = (now () -. t0) *. 1000.0 });
  results
