(* Tests for the parallel batch engine: job digests, the Domain pool,
   the content-addressed cache and the batch runner's determinism,
   memoization and failure isolation. *)

open Engine

let big = Alcotest.testable Bignum.pp Bignum.equal

(* A small branchy host (same shape as the jwm tests): enough dynamic
   branches to carry a 64-bit fingerprint in a handful of pieces. *)
let host_program =
  let gcd =
    Stackvm.Asm.func ~name:"gcd" ~nargs:2 ~nlocals:3
      Stackvm.Asm.[
        L "loop";
        I (Stackvm.Instr.Load 1); I (Stackvm.Instr.Const 0);
        I (Stackvm.Instr.Cmp Stackvm.Instr.Eq); Br (true, "done");
        I (Stackvm.Instr.Load 0); I (Stackvm.Instr.Load 1);
        I (Stackvm.Instr.Binop Stackvm.Instr.Rem); I (Stackvm.Instr.Store 2);
        I (Stackvm.Instr.Load 1); I (Stackvm.Instr.Store 0);
        I (Stackvm.Instr.Load 2); I (Stackvm.Instr.Store 1);
        Jmp "loop";
        L "done";
        I (Stackvm.Instr.Load 0); I Stackvm.Instr.Ret;
      ]
  in
  let main =
    Stackvm.Asm.func ~name:"main" ~nargs:0 ~nlocals:2
      Stackvm.Asm.[
        I Stackvm.Instr.Read; I (Stackvm.Instr.Store 0);
        I Stackvm.Instr.Read; I (Stackvm.Instr.Store 1);
        I (Stackvm.Instr.Load 0); I (Stackvm.Instr.Load 1);
        I (Stackvm.Instr.Call "gcd"); I Stackvm.Instr.Print;
        I (Stackvm.Instr.Const 0); I Stackvm.Instr.Ret;
      ]
  in
  Stackvm.Program.make [ gcd; main ]

let secret_input = [ 36; 84 ]
let key = "engine-test-key"
let fp = Bignum.of_string "13105294131850248109"

let embed_job ?label ?seed fingerprint =
  Job.make ?label ?seed ~key ~bits:64 ~input:secret_input
    (Scheme.Watermarker.Vm_program host_program)
    (Job.Embed { fingerprint; pieces = 12 })

(* ---- Job: content addressing ---- *)

let test_digest_stable () =
  let j1 = embed_job fp and j2 = embed_job fp in
  Alcotest.(check string) "equal specs, equal digests" (Job.digest j1) (Job.digest j2);
  Alcotest.(check string) "equal trace digests" (Job.trace_digest j1) (Job.trace_digest j2)

let test_digest_sensitivity () =
  let base = embed_job fp in
  let differs j = Alcotest.(check bool) "digest differs" false (Job.digest j = Job.digest base) in
  differs (embed_job (Bignum.add fp (Bignum.of_int 1)));
  differs { base with seed = 99L };
  differs { base with key = "other-key" };
  differs { base with input = [ 36; 85 ] };
  (* the label is cosmetic: same digest *)
  Alcotest.(check string) "label excluded"
    (Job.digest base)
    (Job.digest (embed_job ~label:"renamed" fp))

let test_trace_digest_shared () =
  (* every fingerprint of a fleet shares one trace address *)
  let a = embed_job fp and b = embed_job (Bignum.add fp (Bignum.of_int 7)) in
  Alcotest.(check string) "same program+input => same trace" (Job.trace_digest a) (Job.trace_digest b);
  let r =
    Job.make ~key ~bits:64 ~input:secret_input (Scheme.Watermarker.Vm_program host_program)
      (Job.Recognize { expected = None })
  in
  Alcotest.(check bool) "recognize has its own fuel default => distinct trace key" true
    (Job.trace_digest r <> Job.trace_digest a || r.Job.fuel = a.Job.fuel)

(* ---- Pool: ordering and isolation ---- *)

let test_pool_order () =
  let thunks = List.init 32 (fun i () -> i * i) in
  let results = Pool.run_list ~domains:4 thunks in
  let expect = List.init 32 (fun i -> Ok (i * i)) in
  Alcotest.(check bool) "results in submission order" true (results = expect)

let test_pool_isolation () =
  let thunks =
    List.init 8 (fun i () -> if i mod 3 = 1 then failwith (Printf.sprintf "boom-%d" i) else i)
  in
  let results = Pool.run_list ~domains:4 thunks in
  List.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "survivor value" i v
      | Error (Failure msg) ->
          Alcotest.(check bool) "failing index trapped" true (i mod 3 = 1);
          Alcotest.(check string) "its own message" (Printf.sprintf "boom-%d" i) msg
      | Error _ -> Alcotest.fail "unexpected exception")
    results

let test_pool_shutdown () =
  let pool = Pool.create ~domains:2 () in
  let f = Pool.submit pool (fun () -> 41 + 1) in
  Alcotest.(check int) "future resolves" 42 (Pool.await_exn f);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> ())))

(* the domain each thunk ran on; every thunk spins for a millisecond so
   that no domain can drain the list before the others start claiming *)
let domains_used ~domains n =
  let spin () =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 0.001 do
      Domain.cpu_relax ()
    done
  in
  Pool.run_list ~domains
    (List.init n (fun _ () ->
         spin ();
         (Domain.self () :> int)))
  |> List.map (function Ok d -> d | Error e -> raise e)
  |> List.sort_uniq compare

let test_pool_counts_caller () =
  let caller = (Domain.self () :> int) in
  List.iter
    (fun domains ->
      let used = domains_used ~domains 16 in
      Alcotest.(check bool)
        (Printf.sprintf "at most %d domains" domains)
        true
        (List.length used <= domains);
      Alcotest.(check bool) (Printf.sprintf "caller among %d" domains) true (List.mem caller used))
    [ 1; 2; 3 ]

let test_pool_single_thunk_inline () =
  let caller = (Domain.self () :> int) in
  Alcotest.(check (list int)) "one thunk runs on the caller" [ caller ] (domains_used ~domains:4 1)

let test_pool_nested () =
  let results =
    Pool.run_list ~domains:2
      (List.init 4 (fun i () ->
           Pool.run_list ~domains:2 (List.init 3 (fun j () -> (10 * i) + j))
           |> List.map (function Ok v -> v | Error e -> raise e)))
  in
  Alcotest.(check bool) "nested results in order" true
    (results = List.init 4 (fun i -> Ok (List.init 3 (fun j -> (10 * i) + j))))

(* the domains other than the caller that a call's thunks ran on; every
   thunk waits (a second at most) until as many domains as the call can
   use have joined in, so a helper takes part whenever one exists *)
let helper_domains ~domains n =
  let caller = (Domain.self () :> int) in
  let can_use = min (min domains n) (Domain.recommended_domain_count ()) in
  let m = Mutex.create () and seen = ref [] in
  let joined () = Mutex.protect m (fun () -> List.length !seen) in
  Pool.run_list ~domains
    (List.init n (fun _ () ->
         let d = (Domain.self () :> int) in
         Mutex.protect m (fun () -> if not (List.mem d !seen) then seen := d :: !seen);
         let t0 = Unix.gettimeofday () in
         while joined () < can_use && Unix.gettimeofday () -. t0 < 1.0 do
           Domain.cpu_relax ()
         done;
         d))
  |> List.filter_map (function Ok d -> if d = caller then None else Some d | Error e -> raise e)
  |> List.sort_uniq compare

(* A call on every core grows the pool to the most it may hold, cores - 1
   helpers, and sees each of them, since every thunk waits for all.  Later
   calls may be served by any of those helpers, but never by a new domain. *)
let test_pool_keeps_its_helper () =
  let cores = Domain.recommended_domain_count () in
  let pool = helper_domains ~domains:cores 64 in
  Alcotest.(check int) "a call on every core sees every helper" (cores - 1) (List.length pool);
  for _ = 1 to 3 do
    let used = helper_domains ~domains:2 8 in
    Alcotest.(check int) "one helper in a two-domain call" (min 1 (cores - 1)) (List.length used);
    Alcotest.(check bool) "no domain spawned for the call" true (List.for_all (fun d -> List.mem d pool) used)
  done

let test_pool_concurrent_callers () =
  let thunks k = List.init 64 (fun i () -> Hashtbl.hash (k, i)) in
  let expect k = List.init 64 (fun i -> Ok (Hashtbl.hash (k, i))) in
  let other = Domain.spawn (fun () -> Pool.run_list ~domains:2 (thunks 1)) in
  let here = Pool.run_list ~domains:2 (thunks 2) in
  let there = Domain.join other in
  Alcotest.(check bool) "this domain's results in order" true (here = expect 2);
  Alcotest.(check bool) "the other domain's results in order" true (there = expect 1)

let test_pool_capped_at_cores () =
  let cores = Domain.recommended_domain_count () in
  let used = domains_used ~domains:(cores + 2) 64 in
  Alcotest.(check bool)
    (Printf.sprintf "%d domains used, at most %d" (List.length used) cores)
    true
    (List.length used <= cores)

(* the cases that depend on how a warm helper and the caller interleave *)
let test_pool_cases_repeat () =
  for _ = 1 to 50 do
    test_pool_counts_caller ();
    test_pool_single_thunk_inline ();
    test_pool_nested ()
  done

(* ---- Cache: hits, misses, spill ---- *)

let test_cache_memoizes () =
  let cache = Cache.create () in
  let calls = ref 0 in
  let compute () = incr calls; "value" in
  let v1 = Cache.with_bytes cache ~stage:"s" ~key:"k" compute in
  let v2 = Cache.with_bytes cache ~stage:"s" ~key:"k" compute in
  Alcotest.(check string) "first" "value" v1;
  Alcotest.(check string) "second" "value" v2;
  Alcotest.(check int) "computed once" 1 !calls;
  let s = Cache.stats cache in
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check bool) "stage isolates keys" true
    (Cache.find_bytes cache ~stage:"other" ~key:"k" = None)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "pathmark-cache" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_cache_spill () =
  with_temp_dir (fun dir ->
      let first = Cache.create ~spill_dir:dir () in
      Cache.store_bytes first ~stage:"trace" ~key:"abc123" "payload";
      (* a fresh cache instance (fresh process, conceptually) reloads from disk *)
      let second = Cache.create ~spill_dir:dir () in
      Alcotest.(check (option string)) "reloaded from disk" (Some "payload")
        (Cache.find_bytes second ~stage:"trace" ~key:"abc123");
      let s = Cache.stats second in
      Alcotest.(check int) "counted as disk load" 1 s.Cache.disk_loads;
      Alcotest.(check bool) "mem_bytes sees disk" true
        (Cache.mem_bytes (Cache.create ~spill_dir:dir ()) ~stage:"trace" ~key:"abc123"))

let test_cache_corrupt_spill_is_miss () =
  with_temp_dir (fun dir ->
      let oc = open_out_bin (Filename.concat dir "embed-deadbeef.bin") in
      output_string oc "not a valid outcome";
      close_out oc;
      let cache = Cache.create ~spill_dir:dir () in
      (* the bytes load fine (cache is content-agnostic)... *)
      Alcotest.(check bool) "bytes load" true
        (Cache.find_bytes cache ~stage:"embed" ~key:"deadbeef" <> None);
      (* ...but the outcome decoder rejects them instead of crashing *)
      Alcotest.(check bool) "decode_outcome rejects garbage" true
        (Batch.decode_outcome "not a valid outcome" = None))

let test_cache_first_insert_wins () =
  let cache = Cache.create () in
  Cache.store_bytes cache ~stage:"s" ~key:"k" "first";
  Cache.store_bytes cache ~stage:"s" ~key:"k" "second";
  Alcotest.(check (option string)) "first insertion wins" (Some "first")
    (Cache.find_bytes cache ~stage:"s" ~key:"k")

let test_cache_lru_eviction_order () =
  let events = Events.create () in
  let cache = Cache.create ~capacity:2 () in
  Cache.store_bytes cache ~stage:"s" ~key:"a" "A";
  Cache.store_bytes cache ~stage:"s" ~key:"b" "B";
  (* touch "a" so "b" becomes the least recently used entry *)
  ignore (Cache.find_bytes cache ~stage:"s" ~key:"a");
  Cache.store_bytes ~events cache ~stage:"s" ~key:"c" "C";
  Alcotest.(check (option string)) "recently used survives" (Some "A")
    (Cache.find_bytes cache ~stage:"s" ~key:"a");
  Alcotest.(check (option string)) "LRU evicted" None (Cache.find_bytes cache ~stage:"s" ~key:"b");
  Alcotest.(check (option string)) "new entry present" (Some "C")
    (Cache.find_bytes cache ~stage:"s" ~key:"c");
  Alcotest.(check int) "eviction counted" 1 (Cache.stats cache).Cache.evictions;
  Alcotest.(check bool) "eviction event names the victim" true
    (List.exists
       (function Events.Cache_evict { stage = "s"; key = "b" } -> true | _ -> false)
       (Events.events events))

let test_cache_store_tier () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "reg" in
      let store = Store.Registry.open_store ~root () in
      let first = Cache.create ~store () in
      Cache.store_bytes first ~stage:"trace" ~key:"abc123" "payload";
      (* a fresh cache instance over the same registry (fresh process,
         conceptually) reloads from the persistent tier *)
      let second = Cache.create ~store () in
      Alcotest.(check (option string)) "reloaded from the registry" (Some "payload")
        (Cache.find_bytes second ~stage:"trace" ~key:"abc123");
      let s = Cache.stats second in
      Alcotest.(check int) "counted as store load" 1 s.Cache.store_loads;
      Alcotest.(check int) "not a disk load" 0 s.Cache.disk_loads;
      Alcotest.(check bool) "mem_bytes sees the registry" true
        (Cache.mem_bytes (Cache.create ~store ()) ~stage:"trace" ~key:"abc123");
      Store.Registry.close store;
      (* and it survives a registry reopen, i.e. it really is on disk *)
      let store = Store.Registry.open_store ~root () in
      let third = Cache.create ~store () in
      Alcotest.(check (option string)) "survives registry reopen" (Some "payload")
        (Cache.find_bytes third ~stage:"trace" ~key:"abc123");
      Store.Registry.close store)

(* ---- Outcome codec ---- *)

let test_outcome_roundtrip () =
  let outcomes =
    [
      Batch.Embedded { program = "\x00\xffbytes"; bytes_before = 10; bytes_after = 22 };
      Batch.Recognized { value = Some fp; matched = Some true };
      Batch.Recognized { value = None; matched = None };
      Batch.Failed { reason = "fuel exhausted"; attempts = 3 };
    ]
  in
  List.iter
    (fun o ->
      match Batch.decode_outcome (Batch.encode_outcome o) with
      | Some o' -> Alcotest.(check string) "round-trips"
                     (Batch.describe_outcome o) (Batch.describe_outcome o')
      | None -> Alcotest.fail "decode failed")
    outcomes;
  Alcotest.(check bool) "truncated rejected" true
    (Batch.decode_outcome (String.sub (Batch.encode_outcome (List.hd outcomes)) 0 6) = None);
  Alcotest.(check bool) "trailing garbage rejected" true
    (Batch.decode_outcome (Batch.encode_outcome (List.hd outcomes) ^ "x") = None)

(* ---- Batch: determinism, caching, isolation ---- *)

let fleet = List.init 4 (fun i -> Bignum.add fp (Bignum.of_int i))

let embed_fleet ?domains ?cache ?events () =
  Batch.run ?domains ?cache ?events
    (List.mapi (fun i f -> embed_job ~seed:(Int64.of_int (1000 + i)) f) fleet)

let embedded_bytes r =
  match r.Batch.outcome with
  | Batch.Embedded { program; _ } -> program
  | _ -> Alcotest.fail "expected Embedded"

let test_batch_pool_matches_sequential () =
  let seq = embed_fleet ~domains:1 () in
  let pooled = embed_fleet ~domains:4 ~cache:(Cache.create ()) () in
  Alcotest.(check int) "same count" (List.length seq) (List.length pooled);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "ok" true (Batch.ok a && Batch.ok b);
      Alcotest.(check string) "byte-identical program" (embedded_bytes a) (embedded_bytes b))
    seq pooled

let test_watermark_batch_domains () =
  let batch domains =
    Pathmark.watermark_batch ~domains ~cache:(Cache.create ()) ~key ~bits:64 ~pieces:12
      ~input:secret_input ~fingerprints:fleet host_program
    |> List.map Stackvm.Serialize.encode
  in
  Alcotest.(check (list string)) "same marked programs" (batch 1) (batch 2)

let test_batch_rerun_all_cached () =
  let cache = Cache.create () in
  let cold = embed_fleet ~domains:2 ~cache () in
  let events = Events.create () in
  let warm = embed_fleet ~domains:2 ~cache ~events () in
  List.iter2
    (fun c w ->
      Alcotest.(check bool) "cold not cached" false c.Batch.from_cache;
      Alcotest.(check bool) "warm from cache" true w.Batch.from_cache;
      Alcotest.(check int) "no attempts on hit" 0 w.Batch.attempts;
      Alcotest.(check string) "same bytes" (embedded_bytes c) (embedded_bytes w))
    cold warm;
  let hits =
    Events.count events (function Events.Cache_hit { stage = "embed"; _ } -> true | _ -> false)
  in
  Alcotest.(check int) "one result hit per job" (List.length fleet) hits

let test_batch_failure_isolated () =
  (* middle job names an unknown scheme => raises inside the worker *)
  let wm = embed_job fp in
  let results = Batch.run ~domains:1 [ wm ] in
  let embedded =
    match (List.hd results).Batch.outcome with
    | Batch.Embedded { program; _ } -> Stackvm.Serialize.decode program
    | _ -> Alcotest.fail "embed failed"
  in
  let good expected =
    Job.make ~key ~bits:64 ~input:secret_input (Scheme.Watermarker.Vm_program embedded)
      (Job.Recognize { expected = Some expected })
  in
  let bad =
    Job.make ~scheme:"no-such-scheme" ~key ~bits:64 ~input:secret_input
      (Scheme.Watermarker.Vm_program embedded)
      (Job.Recognize { expected = None })
  in
  let events = Events.create () in
  let results = Batch.run ~domains:2 ~retries:1 ~events [ good fp; bad; good fp ] in
  (match List.map (fun r -> r.Batch.outcome) results with
  | [ Batch.Recognized { matched = Some true; _ };
      Batch.Failed { attempts = 2; _ };
      Batch.Recognized { matched = Some true; _ } ] -> ()
  | _ -> Alcotest.fail "expected ok / failed(2 attempts) / ok");
  let retries =
    Events.count events (function Events.Job_retry _ -> true | _ -> false)
  in
  Alcotest.(check int) "one retry recorded" 1 retries

let test_batch_recognize_and_attack () =
  let cache = Cache.create () in
  let embed = List.hd (Batch.run ~cache [ embed_job fp ]) in
  let embedded =
    match embed.Batch.outcome with
    | Batch.Embedded { program; _ } -> Stackvm.Serialize.decode program
    | _ -> Alcotest.fail "embed failed"
  in
  (* recognize the marked program as shipped and after two distortive
     attacks; a warm re-run must serve the same outcomes from the cache *)
  let rng = Util.Prng.create 0x5EEDL in
  let attacked name = (List.assoc name Vmattacks.Attacks.all) (Util.Prng.split rng) embedded in
  let jobs =
    List.map
      (fun program ->
        Job.make ~key ~bits:64 ~input:secret_input (Scheme.Watermarker.Vm_program program)
          (Job.Recognize { expected = Some fp }))
      [ embedded; attacked "nop-insertion"; attacked "block-reorder" ]
  in
  let cold = Batch.run ~cache jobs in
  let warm = Batch.run ~cache jobs in
  List.iter2
    (fun c w ->
      (match c.Batch.outcome with
      | Batch.Recognized { value = Some v; matched = Some true } ->
          Alcotest.check big "recovered fingerprint" fp v
      | o -> Alcotest.fail ("expected a matching recognition, got " ^ Batch.describe_outcome o));
      Alcotest.(check bool) "warm from cache" true w.Batch.from_cache;
      Alcotest.(check string) "same outcome" (Batch.describe_outcome c.Batch.outcome)
        (Batch.describe_outcome w.Batch.outcome))
    cold warm

(* ---- Events ---- *)

let test_events_counters_and_json () =
  let buf = Buffer.create 256 in
  let events = Events.create ~sink:(fun e -> Buffer.add_string buf (Events.to_json e)) () in
  Events.emit events (Events.Job_finish
    { id = 0; label = "a\"b"; ok = true; detail = "done"; ms = 1.5; attempts = 1; cached = false });
  Events.emit events (Events.Cache_hit { stage = "embed"; key = "k" });
  Events.emit events (Events.Counter { name = "custom"; delta = 3 });
  Events.emit events (Events.Counter { name = "custom"; delta = 2 });
  let assoc = Events.counters events in
  Alcotest.(check (option int)) "custom counter" (Some 5) (List.assoc_opt "custom" assoc);
  Alcotest.(check (option int)) "derived ok" (Some 1) (List.assoc_opt "jobs.ok" assoc);
  Alcotest.(check (option int)) "derived hits" (Some 1) (List.assoc_opt "cache.hits" assoc);
  let json = Buffer.contents buf in
  Alcotest.(check bool) "escapes quotes" true
    (String.length json > 0
    && (let rec find i = i + 4 <= String.length json && (String.sub json i 4 = "a\\\"b" || find (i + 1)) in
        find 0));
  Alcotest.(check int) "three lines recorded + counter x2" 4 (List.length (Events.events events))

(* ---- Batch: one snapshot trace per fleet ---- *)

let trace_mem_misses events =
  Events.count events (function Events.Cache_miss { stage = "trace-mem"; _ } -> true | _ -> false)

let test_fleet_shares_one_trace () =
  let seed i = Int64.of_int (1000 + i) in
  let fleet_jobs scheme =
    List.mapi
      (fun i f ->
        Job.make ~scheme ~seed:(seed i) ~key ~bits:64 ~input:secret_input
          (Scheme.Watermarker.Vm_program host_program)
          (Job.Embed { fingerprint = f; pieces = 12 }))
      fleet
  in
  let events = Events.create () in
  let results = Batch.run ~domains:2 ~cache:(Cache.create ()) ~events (fleet_jobs "jwm") in
  Alcotest.(check int) "one snapshot capture for the jwm fleet" 1 (trace_mem_misses events);
  let (module W) = Scheme.Builtin.find_exn "jwm" in
  List.iteri
    (fun i r ->
      let spec =
        Scheme.Watermarker.spec ~seed:(seed i) ~redundancy:12 ~key ~bits:64 ~input:secret_input ()
      in
      match (W.embed (List.nth fleet i) spec (Scheme.Watermarker.Vm_program host_program)).carrier with
      | Scheme.Watermarker.Vm_program p ->
          Alcotest.(check string) "shared trace embeds like the uncached scheme"
            (Stackvm.Serialize.encode p) (embedded_bytes r)
      | _ -> Alcotest.fail "jwm embedded a non-VM carrier")
    results;
  let events = Events.create () in
  let results = Batch.run ~domains:2 ~cache:(Cache.create ()) ~events (fleet_jobs "gwm") in
  List.iter (fun r -> Alcotest.(check bool) "gwm embed ok" true (Batch.ok r)) results;
  Alcotest.(check int) "gwm embeds without a snapshot trace" 0 (trace_mem_misses events)

let test_faulted_rerun_traces_nothing () =
  (* a fault plan salts the result keys; the prewarm must look them up
     under the same salt, or a warm re-run still captures the host *)
  with_temp_dir (fun dir ->
      let inject = Fault.Inject.make ~seed:7L [ Fault.Spec.Trace_flip 0.001 ] in
      let run ?events () =
        (* a fresh process over the spill directory: results on disk, no
           trace in memory *)
        Batch.run ~inject ~cache:(Cache.create ~spill_dir:dir ()) ?events (List.map embed_job fleet)
      in
      ignore (run ());
      let events = Events.create () in
      List.iter
        (fun r -> Alcotest.(check bool) "warm from cache" true r.Batch.from_cache)
        (run ~events ());
      Alcotest.(check int) "no snapshot capture" 0 (trace_mem_misses events))

(* ---- Batch: degraded-mode recognition counters ---- *)

let test_recognition_counters () =
  (* the noisy batch smoke's setup: caffeine, 53 pieces, trace-noise=0.001
     under fault seed 7 *)
  let w = Workloads.Caffeine.suite in
  let program = Workloads.Workload.vm_program w and input = w.Workloads.Workload.input in
  let key = "pathmark-default-key" and mark = Bignum.of_string "123456789123456789" in
  let marked =
    match
      (List.hd
         (Batch.run
            [
              Job.make ~seed:7L ~key ~bits:64 ~input (Scheme.Watermarker.Vm_program program)
                (Job.Embed { fingerprint = mark; pieces = 53 });
            ]))
        .Batch.outcome
    with
    | Batch.Embedded { program; _ } -> Stackvm.Serialize.decode program
    | o -> Alcotest.fail ("embed failed: " ^ Batch.describe_outcome o)
  in
  let recognize ?(scheme = "jwm") ?rate prog =
    let inject = Option.map (fun r -> Fault.Inject.make ~seed:7L [ Fault.Spec.Trace_flip r ]) rate in
    let events = Events.create () in
    let job =
      Job.make ~scheme ~key ~bits:64 ~input (Scheme.Watermarker.Vm_program prog)
        (Job.Recognize { expected = None })
    in
    let r = List.hd (Batch.run ?inject ~events [ job ]) in
    let counter name = Option.value ~default:0 (List.assoc_opt name (Events.counters events)) in
    (r.Batch.outcome, counter "recognitions.degraded", counter "recognitions.partial")
  in
  let recovered = function
    | Batch.Recognized { value = Some v; _ } -> Bignum.equal v mark
    | _ -> false
  in
  let lost = function Batch.Recognized { value = None; _ } -> true | _ -> false in
  let o, degraded, partial = recognize marked in
  Alcotest.(check (list int)) "clean: no degraded-mode counter" [ 0; 0 ] [ degraded; partial ];
  Alcotest.(check bool) "clean: recovered" true (recovered o);
  let o, degraded, partial = recognize ~rate:0.001 marked in
  Alcotest.(check bool) "noisy: recovered" true (recovered o);
  Alcotest.(check (list int)) "noisy: degraded, not partial" [ 1; 0 ] [ degraded; partial ];
  let o, degraded, partial = recognize ~rate:0.1 marked in
  Alcotest.(check bool) "wrecked: lost" true (lost o);
  Alcotest.(check (list int)) "wrecked: partial evidence" [ 0; 1 ] [ degraded; partial ];
  let o, degraded, partial = recognize program in
  Alcotest.(check bool) "unmarked: nothing recovered" true (lost o);
  Alcotest.(check (list int)) "unmarked: partial evidence" [ 0; 1 ] [ degraded; partial ];
  (* gwm scores a lost mark at confidence 0: never partial *)
  let o, degraded, partial = recognize ~scheme:"gwm" program in
  Alcotest.(check bool) "gwm unmarked: nothing recovered" true (lost o);
  Alcotest.(check (list int)) "gwm unmarked: no counter" [ 0; 0 ] [ degraded; partial ]

(* ---- Job: digests pinned per kind ---- *)

let native_host =
  let open Nativesim in
  {
    Asm.text =
      Asm.[
        I (Insn.In 0);
        I (Insn.Mov_imm (1, 0));
        L "loop";
        I (Insn.Cmp (1, 0));
        Jcc (Insn.Gt, Lbl "after");
        I (Insn.Alu_imm (Insn.Add, 1, 1));
        Jmp (Lbl "loop");
        L "after";
        I (Insn.Out 1);
        I Insn.Halt;
      ];
    data = [];
  }

let test_digest_known_answers () =
  let cell =
    Job.cell_spec ~fault_seed:3L ~faults:[ Fault.Spec.Trace_flip 0.01 ] ~fingerprint:fp
      ~attack:"nop-insertion" ()
  in
  let control = Job.cell_spec ~control:true ~fingerprint:fp ~attack:"identity" () in
  let vm_host = Scheme.Watermarker.Vm_program host_program in
  let native_host = Scheme.Watermarker.Native_source native_host in
  let jobs =
    [
      Job.make ~seed:1000L ~key ~bits:64 ~input:secret_input vm_host
        (Job.Embed { fingerprint = fp; pieces = 12 });
      Job.make ~scheme:"gwm" ~fuel:5000 ~key ~bits:64 ~input:secret_input vm_host
        (Job.Embed { fingerprint = fp; pieces = 8 });
      Job.make ~key ~bits:64 ~input:secret_input vm_host (Job.Recognize { expected = None });
      Job.make ~scheme:"jwm+gwm" ~key ~bits:64 ~input:secret_input vm_host
        (Job.Recognize { expected = Some fp });
      Job.make ~scheme:"gwm" ~key ~bits:64 ~input:secret_input vm_host (Job.Audit { fingerprint = fp });
      Job.make ~key ~bits:64 ~input:secret_input vm_host (Job.Tournament_cell cell);
      Job.make ~scheme:"gwm" ~key ~bits:64 ~input:secret_input vm_host (Job.Tournament_cell control);
      Job.make ~scheme:"nwm" ~key ~bits:24 ~input:[ 6 ] native_host
        (Job.Audit { fingerprint = Bignum.of_int 0xBEEF });
      Job.make ~scheme:"nwm" ~key ~bits:24 ~input:[ 6 ] native_host (Job.Tournament_cell cell);
    ]
  in
  Alcotest.(check (list (pair string string)))
    "kind and digest per job"
    [
      ("embed", "772d6dd1ae5970295c6e3fbc86855352");
      ("embed", "0603b37826d4661afb74b780afc7f9b3");
      ("recognize", "446fd7abb3068b86059a20d0a8ef1e0d");
      ("recognize", "2495b0b87d0b73094a257e722a0b71f1");
      ("audit", "09a060ec57c5f3cabd24512f23c76a43");
      ("tournament", "d904ad076aa0c68a15ad6db7d5f00332");
      ("tournament", "50f8b7f1f6014e73b53ce0b648a20691");
      (* the native audit's action text is "audit" now, as on the VM
         track; the native cell's digest never named its track *)
      ("audit", "c0ed86727cfa1340bea2df99f5b533aa");
      ("tournament", "d08cca1f2340e6a3f965f03daf29eae2");
    ]
    (List.map (fun j -> (Job.kind j, Job.digest j)) jobs)

let suite =
  [
    Alcotest.test_case "job digest is stable" `Quick test_digest_stable;
    Alcotest.test_case "job digest covers the spec, not the label" `Quick test_digest_sensitivity;
    Alcotest.test_case "trace digest shared across a fleet" `Quick test_trace_digest_shared;
    Alcotest.test_case "pool preserves submission order" `Quick test_pool_order;
    Alcotest.test_case "pool isolates task exceptions" `Quick test_pool_isolation;
    Alcotest.test_case "pool shutdown is final and idempotent" `Quick test_pool_shutdown;
    Alcotest.test_case "pool counts the caller among its domains" `Quick test_pool_counts_caller;
    Alcotest.test_case "pool runs a lone thunk on the caller" `Quick test_pool_single_thunk_inline;
    Alcotest.test_case "pool nested inside a thunk completes" `Quick test_pool_nested;
    Alcotest.test_case "cache memoizes and counts" `Quick test_cache_memoizes;
    Alcotest.test_case "cache spills to disk and reloads" `Quick test_cache_spill;
    Alcotest.test_case "corrupt spill decodes to a miss" `Quick test_cache_corrupt_spill_is_miss;
    Alcotest.test_case "cache first insertion wins" `Quick test_cache_first_insert_wins;
    Alcotest.test_case "cache evicts least recently used" `Quick test_cache_lru_eviction_order;
    Alcotest.test_case "cache store tier persists across instances" `Quick test_cache_store_tier;
    Alcotest.test_case "outcome codec round-trips" `Quick test_outcome_roundtrip;
    Alcotest.test_case "pooled batch byte-identical to sequential" `Quick test_batch_pool_matches_sequential;
    Alcotest.test_case "watermark_batch on 2 domains equals 1" `Quick test_watermark_batch_domains;
    Alcotest.test_case "warm re-run served entirely from cache" `Quick test_batch_rerun_all_cached;
    Alcotest.test_case "failing job isolated, retries bounded" `Quick test_batch_failure_isolated;
    Alcotest.test_case "recognize and attack jobs round-trip" `Quick test_batch_recognize_and_attack;
    Alcotest.test_case "events: counters, json, sink" `Quick test_events_counters_and_json;
    Alcotest.test_case "jwm embed fleet shares one snapshot trace" `Quick test_fleet_shares_one_trace;
    Alcotest.test_case "batch recognition counts degraded and partial" `Quick test_recognition_counters;
    Alcotest.test_case "job digests pinned for every kind" `Quick test_digest_known_answers;
    Alcotest.test_case "warm faulted re-run captures no trace" `Quick test_faulted_rerun_traces_nothing;
    Alcotest.test_case "pool keeps its helper between calls" `Quick test_pool_keeps_its_helper;
    Alcotest.test_case "pool serves two calling domains at once" `Quick test_pool_concurrent_callers;
    Alcotest.test_case "pool never uses more domains than cores" `Quick test_pool_capped_at_cores;
    Alcotest.test_case "pool caller, lone and nested cases hold 50 times" `Quick test_pool_cases_repeat;
  ]
