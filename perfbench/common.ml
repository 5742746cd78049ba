(* Shared plumbing for the three workloads: the seeded input generator,
   the clock, quantiles, the correctness tally and the metric record. *)

open Pathmark

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, (now () -. t0) *. 1000.0)

(* ---- seeded generator ----

   SplitMix64, kept here rather than borrowed from [Util.Prng] so that the
   generated inputs stay the same when the program's own generator
   changes. *)

type rng = { mutable s : int64 }

let rng ~seed ~stream = { s = Int64.add (Int64.of_int seed) (Int64.mul 0x2545F4914F6CDD1DL (Int64.of_int stream)) }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let below r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let key r = Printf.sprintf "k%016Lx" (next r)

(* exactly [bits] wide: the top bit is set *)
let fingerprint r bits =
  Bignum.of_bits (List.init (bits - 1) (fun _ -> Int64.logand (next r) 1L = 1L) @ [ true ])

(* ---- the VM workloads ---- *)

(* Every stack-VM workload of the repository: the ten SPEC analogs, the
   CaffeineMark suite and its five kernels, Jess and MiniInterp. *)
let vm_workloads () =
  Workloads.Spec.all @ [ Workloads.Caffeine.suite ] @ Workloads.Caffeine.kernels
  @ [ Workloads.Jesslite.engine; Workloads.Miniinterp.interpreter ]

(* Compiled afresh on every call: [Workloads.Workload.vm_program] caches
   by name, which would make repeated set-ups cheaper than the first. *)
let compile (w : Workloads.Workload.t) = Minic.To_stackvm.compile_source w.source

let recognize_fuel = 200_000_000

(* ---- statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* linear interpolation between closest ranks *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)
let geomean xs = exp (mean (List.map log xs))

(* ---- correctness tally ----

   A wrong value and a missing one are different failures: the first is a
   credibility failure (a confidently wrong fingerprint), the second only
   a lost mark. *)

type tally = {
  mutable attempted : int;
  mutable wrong : int;  (** a value other than the embedded fingerprint *)
  mutable missing : int;  (** no value where a fingerprint was embedded *)
  mutable false_positive : int;  (** any value from an unmarked program *)
  mutable errors : int;  (** exceptions and error responses *)
  mutable checks : (string * bool) list;  (** generator and decomposition checks *)
}

let tally () = { attempted = 0; wrong = 0; missing = 0; false_positive = 0; errors = 0; checks = [] }

let failed t = t.wrong + t.missing + t.false_positive + t.errors

let judge t ~expected got =
  t.attempted <- t.attempted + 1;
  match (expected, got) with
  | _, Error _ -> t.errors <- t.errors + 1
  | Some e, Ok (Some v) -> if not (Bignum.equal e v) then t.wrong <- t.wrong + 1
  | Some _, Ok None -> t.missing <- t.missing + 1
  | None, Ok (Some _) -> t.false_positive <- t.false_positive + 1
  | None, Ok None -> ()

let check t name ok = t.checks <- t.checks @ [ (name, ok) ]

let same_option eq a b = match (a, b) with Some x, Some y -> eq x y | None, None -> true | _ -> false

(* one answer judged as a single-operation tally, for set-up probes *)
let answer_ok ~expected got =
  let t = tally () in
  judge t ~expected got;
  failed t = 0

(* ---- results ---- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type result = {
  tally : tally;
  metrics : metric list;
  info : (string * string) list;  (** operation counts and sample sizes *)
  samples : (string * float) list;  (** every timed request: class, ms *)
}

(* ---- process memory ---- *)

let proc_status_kb pid field =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            let prefix = field ^ ":" in
            let lp = String.length prefix in
            if String.length line > lp && String.sub line 0 lp = prefix then
              Scanf.sscanf (String.sub line lp (String.length line - lp)) " %d" float_of_int
            else go ()
      in
      let v = go () in
      close_in ic;
      v

let mb_of_kb kb = kb /. 1024.0

(* Reset a process's peak resident memory to its current one, so that
   VmHWM then reads the peak since this call.  Where the kernel refuses,
   VmHWM keeps the peak since the process started. *)
let reset_peak pid =
  match open_out (Printf.sprintf "/proc/%s/clear_refs" pid) with
  | oc -> ( try output_string oc "5"; close_out oc with Sys_error _ -> close_out_noerr oc)
  | exception Sys_error _ -> ()

(* Group (class, value) samples and summarize each class, in class
   order. *)
let per_class f samples =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (c, v) -> Hashtbl.replace tbl c (v :: Option.value ~default:[] (Hashtbl.find_opt tbl c))) samples;
  List.map (fun c -> f (Hashtbl.find tbl c)) (List.sort_uniq compare (List.map fst samples))

(* Latency metrics shared by every workload, from (class, ms) samples.  A
   class is one kind of request (same host, scheme and operation), met
   once per pass with a different key, fingerprint or embedding.  The
   machine's slow phases last seconds to minutes and only ever add time,
   so each class is summarized by the lower quartile of its requests over
   the passes: the slowest phases drop out, but the figure is still set
   by a quarter of the passes or more, so a cost that hits only some
   requests of a class, or grows pass by pass, moves it.  Throughput is
   one request of every class at those times; the latency quantiles run
   over them. *)
let class_time xs = quantile xs 0.25

let latency_of times =
  [
    metric "throughput_per_s" "1/s" (float_of_int (List.length times) /. (sum times /. 1000.0));
    metric "latency_ms_p50" "ms" (quantile times 0.5);
    metric "latency_ms_p90" "ms" (quantile times 0.9);
  ]

let latency_metrics samples = latency_of (per_class class_time samples)

(* The same figures over every request, for a workload whose classes meet
   too few times in a run for a quartile of their own. *)
let pooled_latency_metrics samples = latency_of (List.map snd samples)

(* the same figures over every request, unsummarized, for the record *)
let raw_latency_info samples =
  let all = List.map snd samples in
  [
    ("requests_timed", string_of_int (List.length all));
    ("request_classes", string_of_int (List.length (per_class List.length samples)));
    ("raw_throughput_per_s", Printf.sprintf "%.4f" (float_of_int (List.length all) /. (sum all /. 1000.0)));
    ("raw_latency_ms_p50", Printf.sprintf "%.4f" (quantile all 0.5));
    ("raw_latency_ms_p90", Printf.sprintf "%.4f" (quantile all 0.9));
  ]

let settle () = Gc.compact ()

(* Set-up runs [setups] times and is summarized by its median.  The first
   run comes before the first pass and provides the inputs; the others are
   spread over the gaps before the passes, outside their timing, so that a
   slow phase of the machine at the start of a run does not set them all.
   This is how many of them run before pass [p]. *)
let setups_before_pass ~setups ~passes p =
  let extra = setups - 1 in
  (extra / passes) + if p < extra mod passes then 1 else 0

(* ---- the paper's Fig. 8 costs ---- *)

type profile = { bytes : int; steps : int; outputs : int list }

(* serialized size, and steps and outputs on the secret input *)
let profile prog ~input =
  let r = Stackvm.Compile.run_program ~fuel:recognize_fuel prog ~input in
  { bytes = Stackvm.Serialize.size_in_bytes prog; steps = r.Stackvm.Interp.steps; outputs = r.Stackvm.Interp.outputs }

(* Per class (host and scheme), the median marked/unmarked ratio over its
   marked programs — a piece that lands in a hot loop is rare and costly,
   and would make a mean depend on the seed; then the geometric mean over
   classes, so large hosts do not dominate. *)
let class_geomean samples = geomean (per_class median samples)

(* Compare a marked program with its host: it must compute what the host
   computes; returns its (size, steps) ratios, or [None] when it does not. *)
let costs ~(host : profile) ~input prog =
  let p = profile prog ~input in
  if p.outputs <> host.outputs then None
  else Some (float_of_int p.bytes /. float_of_int host.bytes, float_of_int p.steps /. float_of_int host.steps)

let cost_metrics ~sizes ~steps =
  [
    metric "marked_size_ratio" "ratio" (class_geomean sizes);
    metric "marked_steps_ratio" "ratio" (class_geomean steps);
  ]

(* ---- per-layer metric names ----

   Every traced run prints all of them; a layer a workload never enters
   reads 0 there, which is itself the prediction that a change to that
   layer leaves the workload alone. *)
let per_layer =
  [
    ("stackvm.serialize.decode.ms", "ms");
    ("codec.params.make.ms", "ms");
    ("stackvm.compile.of_program.ms", "ms");
    ("stackvm.compile.run.ms", "ms");
    ("stackvm.trace.events", "count");
    ("stackvm.trace.bits.ms", "ms");
    ("codec.harvest.ms", "ms");
    ("codec.harvest.windows", "count");
    ("codec.harvest.statements", "count");
    ("codec.harvest.yield", "ratio");
    ("codec.recover.ms", "ms");
    ("codec.recover.distinct", "count");
    ("codec.recover.after_vote", "count");
    ("codec.recover.dropped_by_greedy", "count");
    ("codec.recover.keep_ratio", "ratio");
    ("numtheory.gcrt.ms", "ms");
    ("stackvm.trace.capture.ms", "ms");
    ("gwm.recognize_branches.ms", "ms");
    ("gwm.candidates", "count");
    ("gwm.copies_found", "count");
    ("recognize.marked.ms_p50", "ms");
    ("recognize.unmarked.ms_p50", "ms");
    ("unattributed.ms", "ms");
    ("stackvm.trace.capture_snapshots.ms", "ms");
    ("stackvm.interp.steps", "count");
    ("jwm.embed.ms", "ms");
    ("jwm.embed.insertions", "count");
    ("stackvm.serialize.encode.ms", "ms");
    ("engine.batch.job_ms_sum", "ms");
    ("engine.batch.wall_ms", "ms");
    ("engine.pool.efficiency", "ratio");
    ("engine.cache.hits", "count");
    ("engine.cache.misses", "count");
    ("service.wire.encode.ms", "ms");
    ("service.wire.decode.ms", "ms");
    ("service.frame_bytes", "bytes");
    ("service.roundtrip.embed.ms", "ms");
    ("service.roundtrip.recognize_stored.ms", "ms");
    ("service.roundtrip.recognize_bytes.ms", "ms");
    ("service.handle.embed.ms", "ms");
    ("service.handle.recognize_stored.ms", "ms");
    ("service.handle.recognize_bytes.ms", "ms");
    ("service.transport.ms", "ms");
    ("store.put.ms", "ms");
    ("store.get.ms", "ms");
    ("store.journal_bytes", "bytes");
    ("store.entries", "count");
    ("service.server_rss_growth_mb", "MB");
    ("tracing.overhead_pct", "%");
  ]

(* the traced run's metrics in [per_layer] order, zero where not measured *)
let complete_per_layer ms =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) ms with Some m -> m | None -> metric name unit_ 0.0)
    per_layer
