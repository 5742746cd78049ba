(* Equivalence tests for the execution engine: the threaded-code
   translation must be observationally indistinguishable from the
   reference interpreter — same outcome (incl. trap reasons and
   positions), same outputs, same step count, same branch-event sequence,
   and, when translated with the block hook, the same block entries and
   the same snapshot capture as the oracle's ({!Vm_oracle}) — plus unit
   tests for the packed trace buffer and the streaming recognition mode,
   and recognition over the oracle's trace on every corpus entry. *)

open Stackvm

let show_result (r : Interp.result) buf =
  let outcome =
    match r.Interp.outcome with
    | Interp.Finished v -> Printf.sprintf "finished %d" v
    | Interp.Trapped { fidx; pc; reason } -> Printf.sprintf "trap %S @%d:%d" reason fidx pc
    | Interp.Out_of_fuel -> "out of fuel"
  in
  Printf.sprintf "%s, %d steps, %d outputs, %d events" outcome r.Interp.steps
    (List.length r.Interp.outputs) (Tracebuf.length buf)

(* A block-entry log, kept as an entry count and a running digest of
   every entry's function, pc, frame locals and globals: a full copy of
   every entry would not fit the larger workloads' runs in memory. *)
type block_log = { mutable entries : int; mutable digest : int }

let block_log () = { entries = 0; digest = 0 }

let log_block log ~fidx ~pc locals ~lbase ~nlocals globals =
  let mix v = log.digest <- (log.digest * 1_000_003) lxor v in
  log.entries <- log.entries + 1;
  mix fidx;
  mix pc;
  for i = lbase to lbase + nlocals - 1 do
    mix locals.(i)
  done;
  Array.iter mix globals

let show_log log = Printf.sprintf "%d block entries, digest %x" log.entries log.digest

(* a table's bindings in fold order, which [Trace.hot_blocks] ties follow *)
let bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

(* The oracle's trace and the compiled snapshot capture must agree on
   everything embedding and recognition read: result, packed branch
   events, block counts, snapshots, and the order of [hot_blocks], ties
   included. *)
let captures_agree ?fuel prog ~input =
  let ti = Vm_oracle.capture ?fuel prog ~input in
  let tc = Trace.capture ?fuel prog ~input in
  ti.Trace.result = tc.Trace.result
  && Tracebuf.to_packed_list ti.Trace.events = Tracebuf.to_packed_list tc.Trace.events
  && bindings ti.Trace.block_counts = bindings tc.Trace.block_counts
  && bindings ti.Trace.visits = bindings tc.Trace.visits
  && Trace.hot_blocks ti = Trace.hot_blocks tc

(* the interpreter's run, with its branch events and block-entry log *)
let interp_run ?fuel prog input =
  let buf = Tracebuf.create () and log = block_log () in
  let observer =
    {
      Interp.on_block =
        (fun ~fidx ~pc ~locals ~globals ->
          log_block log ~fidx ~pc locals ~lbase:0 ~nlocals:(Array.length locals) globals);
      Interp.on_branch = (fun ~fidx ~pc ~taken -> Tracebuf.add buf ~fidx ~pc ~taken);
    }
  in
  (Interp.run ~observer ?fuel prog ~input, buf, log)

(* the same from a translation made with the block hook *)
let hooked_run ?fuel prog input =
  let buf = Tracebuf.create () and log = block_log () in
  let on_block ~fidx ~pc ~locals ~lbase ~globals =
    log_block log ~fidx ~pc locals ~lbase ~nlocals:prog.Program.funcs.(fidx).Program.nlocals globals
  in
  (Compile.run ~trace:buf ?fuel (Compile.of_program ~on_block prog) ~input, buf, log)

(* run both backends and insist on identical observable behaviour; the
   block-hooked translation must also report the interpreter's block
   entries, in order, with the same frame contents *)
let agree ?fuel name prog input =
  let ri, buf_i, log_i = interp_run ?fuel prog input in
  let buf_c = Tracebuf.create () in
  let rc = Compile.run ~trace:buf_c ?fuel (Compile.of_program prog) ~input in
  Alcotest.(check string) name (show_result ri buf_i) (show_result rc buf_c);
  Alcotest.(check bool)
    (name ^ ": outcomes equal")
    true
    (ri.Interp.outcome = rc.Interp.outcome && ri.Interp.outputs = rc.Interp.outputs);
  Alcotest.(check bool)
    (name ^ ": event streams equal")
    true
    (Tracebuf.to_packed_list buf_i = Tracebuf.to_packed_list buf_c);
  let rh, buf_h, log_h = hooked_run ?fuel prog input in
  Alcotest.(check string) (name ^ ": hooked run") (show_result ri buf_i) (show_result rh buf_h);
  Alcotest.(check bool)
    (name ^ ": hooked run events equal")
    true
    (ri = rh && Tracebuf.to_packed_list buf_i = Tracebuf.to_packed_list buf_h);
  Alcotest.(check string) (name ^ ": block entries") (show_log log_i) (show_log log_h);
  Alcotest.(check bool) (name ^ ": captures agree") true (captures_agree ?fuel prog ~input)

(* a fuel cut right after a transfer must still report the block entered:
   every cut in a run's first [n] steps, block entries only *)
let blocks_agree_at_every_cut ~n name prog input =
  for fuel = 0 to n do
    let ri, _, log_i = interp_run ~fuel prog input and rh, _, log_h = hooked_run ~fuel prog input in
    Alcotest.(check string)
      (Printf.sprintf "%s/cut%d: block entries" name fuel)
      (show_log log_i ^ ", " ^ show_result ri (Tracebuf.create ()))
      (show_log log_h ^ ", " ^ show_result rh (Tracebuf.create ()))
  done

let test_workloads_agree () =
  List.iter
    (fun (wl : Workloads.Workload.t) ->
      let prog = Workloads.Workload.vm_program wl in
      let input = wl.Workloads.Workload.input in
      agree wl.Workloads.Workload.name prog input;
      agree ~fuel:500 (wl.Workloads.Workload.name ^ "/fuel500") prog input;
      agree ~fuel:1 (wl.Workloads.Workload.name ^ "/fuel1") prog input;
      blocks_agree_at_every_cut ~n:300 wl.Workloads.Workload.name prog input)
    Vm_corpus.workloads

(* unverified programs whose control flow escapes the code array: the
   compiled backend's sentinel slot and Bad_pc replay must reproduce the
   interpreter's "pc out of range" trap, step for step, at every fuel *)
let test_bad_pcs_agree () =
  let program funcs = { Program.funcs = Array.of_list funcs; nglobals = 0; main = "main" } in
  let main_of code = { Program.name = "main"; nargs = 0; nlocals = 1; code } in
  let mk code = program [ main_of code ] in
  let callee = { Program.name = "f"; nargs = 0; nlocals = 2; code = [| Instr.Const 7; Instr.Ret |] } in
  let empty = { Program.name = "g"; nargs = 0; nlocals = 0; code = [||] } in
  let progs =
    [
      ("fallthrough", mk [| Instr.Const 1 |]);
      ("jump_to_len", mk [| Instr.Jump 1 |]);
      ("jump_far", mk [| Instr.Jump 99 |]);
      ("jump_negative", mk [| Instr.Jump (-3) |]);
      ("if_far", mk [| Instr.Const 1; Instr.If { sense = true; target = 77 } |]);
      ("if_negative", mk [| Instr.Const 0; Instr.If { sense = true; target = -1 }; Instr.Const 5 |]);
      ("if_taken_negative", mk [| Instr.Const 1; Instr.If { sense = true; target = -1 } |]);
      ("empty_main", mk [||]);
      ("if_to_len", mk [| Instr.Const 1; Instr.If { sense = true; target = 2 } |]);
      ("if_falls_off_end", mk [| Instr.Const 0; Instr.If { sense = true; target = 0 } |]);
      ("fall_into_leader", mk [| Instr.Const 1; Instr.Const 2; Instr.Pop; Instr.Pop; Instr.Jump 1 |]);
      ("call_last", program [ main_of [| Instr.Call "f" |]; callee ]);
      ("ret_to_leader", program [ main_of [| Instr.Call "f"; Instr.Ret; Instr.Jump 1 |]; callee ]);
      ("call_empty", program [ main_of [| Instr.Call "g" |]; empty ]);
    ]
  in
  List.iter
    (fun (name, prog) ->
      agree name prog [];
      for fuel = 0 to 6 do
        agree ~fuel (Printf.sprintf "%s/fuel%d" name fuel) prog []
      done)
    progs

(* every op that falls through, placed right before a block leader (the
   target of a dead trailing jump), at every fuel cut: the entry into that
   block must be reported even when the fuel runs out on the transfer *)
let test_fallthrough_cuts () =
  let new_array = [ Instr.Const 1; Instr.New_array ] in
  let cases =
    [
      ("const", [], Instr.Const 1);
      ("load", [], Instr.Load 0);
      ("store", [ Instr.Const 3 ], Instr.Store 0);
      ("get_global", [], Instr.Get_global 0);
      ("set_global", [ Instr.Const 3 ], Instr.Set_global 0);
      ("binop", [ Instr.Const 3; Instr.Const 4 ], Instr.Binop Instr.Mul);
      ("cmp", [ Instr.Const 3; Instr.Const 4 ], Instr.Cmp Instr.Lt);
      ("neg", [ Instr.Const 3 ], Instr.Neg);
      ("not", [ Instr.Const 3 ], Instr.Not);
      ("dup", [ Instr.Const 3 ], Instr.Dup);
      ("pop", [ Instr.Const 3 ], Instr.Pop);
      ("swap", [ Instr.Const 3; Instr.Const 4 ], Instr.Swap);
      ("new_array", [ Instr.Const 2 ], Instr.New_array);
      ("array_load", new_array @ [ Instr.Const 0 ], Instr.Array_load);
      ("array_store", new_array @ [ Instr.Const 0; Instr.Const 9 ], Instr.Array_store);
      ("array_len", new_array, Instr.Array_len);
      ("print", [ Instr.Const 3 ], Instr.Print);
      ("read", [], Instr.Read);
      ("nop", [], Instr.Nop);
      ("if_not_taken", [ Instr.Const 0 ], Instr.If { sense = true; target = 0 });
    ]
  in
  List.iter
    (fun (name, prefix, op) ->
      let leader = List.length prefix + 1 in
      let code = Array.of_list (prefix @ [ op; Instr.Const 0; Instr.Ret; Instr.Jump leader ]) in
      let prog =
        {
          Program.funcs = [| { Program.name = "main"; nargs = 0; nlocals = 1; code } |];
          nglobals = 1;
          main = "main";
        }
      in
      agree name prog [ 5 ];
      for fuel = 0 to leader + 2 do
        agree ~fuel (Printf.sprintf "%s/fuel%d" name fuel) prog [ 5 ]
      done)
    cases

(* random (often invalid) programs: traps, underflows and loops must be
   reproduced exactly; fuel is always finite because nothing guarantees
   termination *)
let qcheck_random_programs_agree =
  QCheck.Test.make ~name:"compiled backend agrees with interp on random programs" ~count:150
    QCheck.small_nat
    (fun seed ->
      let rng = Util.Prng.create (Int64.of_int (seed + 7)) in
      let prog = Test_stackvm.random_program rng in
      let input = List.init (Util.Prng.int rng 4) (fun i -> i * 3) in
      List.for_all
        (fun fuel ->
          let ri, buf_i, log_i = interp_run ~fuel prog input in
          let buf_c = Tracebuf.create () in
          let rc = Compile.run ~trace:buf_c ~fuel (Compile.of_program prog) ~input in
          let rh, buf_h, log_h = hooked_run ~fuel prog input in
          ri.Interp.outcome = rc.Interp.outcome
          && ri.Interp.outputs = rc.Interp.outputs
          && ri.Interp.steps = rc.Interp.steps
          && Tracebuf.to_packed_list buf_i = Tracebuf.to_packed_list buf_c
          && ri = rh
          && Tracebuf.to_packed_list buf_i = Tracebuf.to_packed_list buf_h
          && log_i = log_h
          && captures_agree ~fuel prog ~input)
        [ 3; 50; 400 ]
      (* and a fuel cut after each of the first 40 steps *)
      && List.for_all
           (fun fuel ->
             let ri, _, log_i = interp_run ~fuel prog input and rh, _, log_h = hooked_run ~fuel prog input in
             ri = rh && log_i = log_h)
           (List.init 41 Fun.id))

(* Embedding reads only the trace, so a compiled snapshot capture must
   yield byte-identical marked programs to the oracle's trace. *)
let test_embed_from_compiled_capture () =
  List.iter
    (fun (wl : Workloads.Workload.t) ->
      let prog = Workloads.Workload.vm_program wl and input = wl.Workloads.Workload.input in
      let ti = Vm_oracle.capture prog ~input and tc = Trace.capture prog ~input in
      List.iteri
        (fun i passphrase ->
          let spec =
            {
              Jwm.Embed.passphrase;
              watermark = Bignum.of_string "987654321987654321";
              watermark_bits = 64;
              pieces = 20;
              input;
            }
          in
          let embed trace =
            Serialize.encode (Jwm.Embed.embed ~trace ~seed:(Int64.of_int (i + 1)) spec prog).Jwm.Embed.program
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: same marked bytes" wl.Workloads.Workload.name passphrase)
            true
            (embed ti = embed tc))
        [ "capture key one"; "capture key two"; "capture key three" ])
    Vm_corpus.workloads

(* ---- packed trace buffer ---- *)

let test_tracebuf_pack_roundtrip () =
  let max_field = 0x7FFF_FFFF in
  List.iter
    (fun (fidx, pc, taken) ->
      let e = Tracebuf.pack ~fidx ~pc ~taken in
      Alcotest.(check int) "fidx" fidx (Tracebuf.fidx e);
      Alcotest.(check int) "pc" pc (Tracebuf.pc e);
      Alcotest.(check bool) "taken" taken (Tracebuf.taken e);
      Alcotest.(check int) "flip is involutive" e (Tracebuf.flip (Tracebuf.flip e));
      Alcotest.(check bool) "flip inverts direction" (not taken) (Tracebuf.taken (Tracebuf.flip e));
      Alcotest.(check int) "site drops direction" (Tracebuf.site e)
        (Tracebuf.site (Tracebuf.flip e)))
    [
      (0, 0, false);
      (0, 0, true);
      (1, 2, true);
      (max_field, max_field, true);
      (max_field, 0, false);
      (12345, 678910, true);
    ]

let test_tracebuf_ops () =
  let buf = Tracebuf.create ~capacity:1 () in
  for i = 0 to 99 do
    Tracebuf.add buf ~fidx:i ~pc:(2 * i) ~taken:(i mod 3 = 0)
  done;
  Alcotest.(check int) "length after growth" 100 (Tracebuf.length buf);
  Alcotest.(check int) "get 7" (Tracebuf.pack ~fidx:7 ~pc:14 ~taken:false) (Tracebuf.get buf 7);
  let n = ref 0 in
  Tracebuf.iter (fun _ -> incr n) buf;
  Alcotest.(check int) "iter covers all" 100 !n;
  Tracebuf.set buf 7 (Tracebuf.flip (Tracebuf.get buf 7));
  Alcotest.(check bool) "set flips in place" true (Tracebuf.taken (Tracebuf.get buf 7));
  Tracebuf.truncate buf 40;
  Alcotest.(check int) "truncate" 40 (Tracebuf.length buf);
  Tracebuf.truncate buf 99;
  Alcotest.(check int) "truncate past end is a no-op" 40 (Tracebuf.length buf);
  Tracebuf.clear buf;
  Alcotest.(check int) "clear" 0 (Tracebuf.length buf)

let test_bitstring_decodes_off_buffer () =
  (* the event records a recognition-only capture unpacks, packed back,
     decode to the trace's own bits *)
  let wl = Workloads.Spec.find "bzip2" in
  let trace =
    Trace.capture ~want_snapshots:false (Workloads.Workload.vm_program wl)
      ~input:wl.Workloads.Workload.input
  in
  Alcotest.(check bool) "fixture has events" true (Array.length trace.Trace.branches > 0);
  Alcotest.(check string) "bits identical"
    (Util.Bitstring.to_string (Trace.bitstring trace))
    (Util.Bitstring.to_string
       (Trace.bits_of_buf (Trace.buf_of_branches (Array.to_list trace.Trace.branches))))

(* ---- streaming recognition ---- *)

let marked =
  lazy
    (let w = Bignum.of_string "3546084529" in
     let embedded =
       Jwm.Embed.embed
         {
           Jwm.Embed.passphrase = "compile equivalence key";
           watermark = w;
           watermark_bits = 32;
           pieces = 40;
           input = [ 36; 84 ];
         }
         Test_jwm.host_program
     in
     (w, embedded.Jwm.Embed.program))

let test_streaming_matches_batch () =
  let w, prog = Lazy.force marked in
  let batch =
    Jwm.Recognize.recognize ~passphrase:"compile equivalence key" ~watermark_bits:32
      ~input:[ 36; 84 ] prog
  in
  (* probe disabled: the stream must reproduce batch recognition exactly *)
  let streamed, status =
    Jwm.Recognize.recognize_streaming ~check_every:0 ~passphrase:"compile equivalence key"
      ~watermark_bits:32 ~input:[ 36; 84 ] prog
  in
  Alcotest.(check bool) "batch recovers" true (batch.Jwm.Recognize.value = Some w);
  Alcotest.(check bool) "ran to completion" true (status = `Completed);
  Alcotest.(check bool) "same value" true (streamed.Jwm.Recognize.value = batch.Jwm.Recognize.value);
  Alcotest.(check int) "same event count" batch.Jwm.Recognize.trace_branches
    streamed.Jwm.Recognize.trace_branches;
  Alcotest.(check int) "same steps" batch.Jwm.Recognize.steps streamed.Jwm.Recognize.steps;
  Alcotest.(check (float 1e-9)) "same confidence" batch.Jwm.Recognize.partial.confidence
    streamed.Jwm.Recognize.partial.confidence;
  (* and on every VM workload, marked at 64 and 256 bits *)
  List.iter
    (fun (e : Vm_corpus.entry) ->
      let batch =
        Jwm.Recognize.recognize ~passphrase:Vm_corpus.key ~watermark_bits:e.bits ~input:e.input
          e.program
      in
      let streamed, status =
        Jwm.Recognize.recognize_streaming ~check_every:0 ~passphrase:Vm_corpus.key
          ~watermark_bits:e.bits ~input:e.input e.program
      in
      Alcotest.(check bool) (e.name ^ ": ran to completion") true (status = `Completed);
      Alcotest.(check bool)
        (e.name ^ ": same value")
        true
        (Option.equal Bignum.equal streamed.Jwm.Recognize.value batch.Jwm.Recognize.value);
      Alcotest.(check string)
        (e.name ^ ": same report")
        (Vm_corpus.show_report batch.Jwm.Recognize.report)
        (Vm_corpus.show_report streamed.Jwm.Recognize.report);
      Alcotest.(check (float 1e-9))
        (e.name ^ ": same confidence")
        batch.Jwm.Recognize.partial.confidence streamed.Jwm.Recognize.partial.confidence;
      Alcotest.(check int)
        (e.name ^ ": same event count")
        batch.Jwm.Recognize.trace_branches streamed.Jwm.Recognize.trace_branches)
    (Vm_corpus.marked ())

let test_streaming_early_exit () =
  let w, prog = Lazy.force marked in
  let full =
    Jwm.Recognize.recognize ~passphrase:"compile equivalence key" ~watermark_bits:32
      ~input:[ 36; 84 ] prog
  in
  let streamed, status =
    Jwm.Recognize.recognize_streaming ~check_every:64 ~confidence_target:0.5
      ~passphrase:"compile equivalence key" ~watermark_bits:32 ~input:[ 36; 84 ] prog
  in
  Alcotest.(check bool) "stopped before the run ended" true (status = `Stopped_early);
  Alcotest.(check bool) "still recovers the mark" true (streamed.Jwm.Recognize.value = Some w);
  Alcotest.(check bool) "fewer steps than the full run" true
    (streamed.Jwm.Recognize.steps < full.Jwm.Recognize.steps)

(* The harvester decrypts windows in chunks, flushing before every count
   the probe reads, so where a stream decides must not move.  The step
   counts are pinned from the one-window-at-a-time harvester: each run
   stops early, at exactly these steps, for every probe period. *)
let test_streaming_stops_where_pinned () =
  let pinned =
    [
      ("crafty/jwm-256", [ (1, 37915); (64, 38244); (4096, 67885) ]);
      ("mcf/jwm-256", [ (1, 62848); (64, 62939); (4096, 99572) ]);
      ("caffeine-sieve/jwm-256", [ (1, 45548); (64, 46029); (4096, 77098) ]);
    ]
  in
  List.iter
    (fun (name, stops) ->
      let e = List.find (fun (e : Vm_corpus.entry) -> e.name = name) (Lazy.force Vm_corpus.entries) in
      List.iter
        (fun (check_every, steps) ->
          let o, status =
            Jwm.Recognize.recognize_streaming ~check_every ~passphrase:Vm_corpus.key
              ~watermark_bits:e.bits ~input:e.input e.program
          in
          let label = Printf.sprintf "%s check_every=%d" name check_every in
          Alcotest.(check bool) (label ^ ": stopped early") true (status = `Stopped_early);
          Alcotest.(check int) (label ^ ": steps") steps o.Jwm.Recognize.steps;
          Alcotest.(check bool) (label ^ ": mark recovered") true
            (Option.equal Bignum.equal e.mark o.Jwm.Recognize.value))
        stops)
    pinned

let test_run_streaming_events_match_buffer () =
  let _, prog = Lazy.force marked in
  let code = Compile.of_program prog in
  let buf = Tracebuf.create () in
  ignore (Compile.run ~trace:buf code ~input:[ 36; 84 ]);
  let pushed = ref [] in
  (match
     Compile.run_streaming code ~input:[ 36; 84 ]
       ~push:(fun e ->
         pushed := e :: !pushed;
         false)
   with
  | `Completed _ -> ()
  | `Stopped _ -> Alcotest.fail "push never asks to stop");
  Alcotest.(check bool) "pushed events equal buffered events" true
    (List.rev !pushed = Tracebuf.to_packed_list buf)

(* ---- fault injection over packed buffers ----

   The buffer injector against the list injector it replaced
   ({!Trace_reference.inject}): every trace fault kind alone, all four
   combined, and the empty plan, which must hand the input buffer back
   untouched. *)

let qcheck_branches_agrees_with_reference =
  QCheck.Test.make ~name:"Inject.branches agrees with the list reference" ~count:100
    QCheck.small_nat
    (fun seed ->
      let rng = Util.Prng.create (Int64.of_int (seed + 13)) in
      let n = Util.Prng.int rng 200 in
      let events =
        List.init n (fun i ->
            {
              Trace.fidx = Util.Prng.int rng 5;
              pc = Util.Prng.int rng 40 + i mod 2;
              taken = Util.Prng.bool rng;
            })
      in
      let kinds =
        [
          Fault.Spec.Trace_flip 0.2;
          Fault.Spec.Trace_drop 0.1;
          Fault.Spec.Trace_dup 0.15;
          Fault.Spec.Trace_trunc 0.3;
        ]
      in
      let plan faults = Fault.Inject.make ~seed:(Int64.of_int (seed * 31 + 5)) faults in
      let salt = Printf.sprintf "salt-%d" (seed mod 3) in
      let buf = Trace.buf_of_branches events in
      let untouched, n_none = Fault.Inject.branches Fault.Inject.none ~salt buf in
      untouched == buf && n_none = 0
      && Trace_reference.inject Fault.Inject.none ~salt events = (events, 0)
      && List.for_all
           (fun faults -> Trace_reference.inject_agrees (plan faults) ~salt events)
           (kinds :: List.map (fun k -> [ k ]) kinds))

(* ---- recognition over the oracle's trace ----

   Jwm recognition runs only on the engine.  Recovery over the bits of
   the oracle's capture must give the same outcome — value, report,
   branch count and steps — on every corpus entry, marked and unmarked. *)

let test_recognition_matches_oracle () =
  List.iter
    (fun (e : Vm_corpus.entry) ->
      let got =
        Jwm.Recognize.recognize ~passphrase:Vm_corpus.key ~watermark_bits:e.bits ~input:e.input
          e.program
      in
      let trace = Vm_oracle.capture ~fuel:200_000_000 ~want_snapshots:false e.program ~input:e.input in
      let params = Codec.Params.make ~passphrase:Vm_corpus.key ~watermark_bits:e.bits () in
      let report =
        Codec.Recombine.recover_from_bitstring ~strides:[ 1; 2 ] params
          (Trace.bits_of_buf trace.Trace.events)
      in
      Alcotest.(check bool)
        (e.name ^ ": same value")
        true
        (Option.equal Bignum.equal report.Codec.Recombine.value got.Jwm.Recognize.value);
      Alcotest.(check string)
        (e.name ^ ": same report")
        (Vm_corpus.show_report report)
        (Vm_corpus.show_report got.Jwm.Recognize.report);
      Alcotest.(check int)
        (e.name ^ ": same branch count")
        (Tracebuf.length trace.Trace.events)
        got.Jwm.Recognize.trace_branches;
      Alcotest.(check int)
        (e.name ^ ": same steps")
        trace.Trace.result.Interp.steps got.Jwm.Recognize.steps;
      (* not vacuous: every marked entry is recovered *)
      match e.mark with
      | Some w ->
          Alcotest.(check bool)
            (e.name ^ ": mark recovered")
            true
            (Option.equal Bignum.equal (Some w) got.Jwm.Recognize.value)
      | None -> ())
    (Lazy.force Vm_corpus.entries)

(* ---- the two capture modes ----

   A snapshot capture and a recognition-only capture make the same run:
   whole or cut short by fuel, they must record the same packed events
   and the same result.  Only the recognition-only capture unpacks the
   events into [branches]; embedding never reads them. *)

let test_capture_modes_agree () =
  List.iter
    (fun (e : Vm_corpus.entry) ->
      let capture ?fuel want_snapshots = Trace.capture ?fuel ~want_snapshots e.program ~input:e.input in
      let full = capture false in
      List.iter
        (fun fuel ->
          let name =
            Printf.sprintf "%s/fuel%s" e.name (Option.fold ~none:"max" ~some:string_of_int fuel)
          in
          let plain = if fuel = None then full else capture ?fuel false in
          let snap = capture ?fuel true in
          Alcotest.(check string)
            (name ^ ": same run")
            (show_result plain.Trace.result plain.Trace.events)
            (show_result snap.Trace.result snap.Trace.events);
          Alcotest.(check bool) (name ^ ": same result") true (plain.Trace.result = snap.Trace.result);
          Alcotest.(check bool)
            (name ^ ": same packed events")
            true
            (Tracebuf.to_packed_list plain.Trace.events = Tracebuf.to_packed_list snap.Trace.events);
          Alcotest.(check int)
            (name ^ ": recognition capture unpacks every event")
            (Tracebuf.length plain.Trace.events)
            (Array.length plain.Trace.branches);
          Alcotest.(check int)
            (name ^ ": snapshot capture unpacks none")
            0
            (Array.length snap.Trace.branches))
        [ None; Some 1; Some (full.Trace.result.Interp.steps / 2) ])
    (Lazy.force Vm_corpus.entries)

let suite =
  [
    ("all workloads agree across backends", `Quick, test_workloads_agree);
    ("out-of-range pcs agree across backends", `Quick, test_bad_pcs_agree);
    ("fall-through into a block at every fuel cut", `Quick, test_fallthrough_cuts);
    QCheck_alcotest.to_alcotest qcheck_random_programs_agree;
    ("tracebuf pack/unpack roundtrip", `Quick, test_tracebuf_pack_roundtrip);
    ("tracebuf operations", `Quick, test_tracebuf_ops);
    ("bitstring decodes identically off buffer", `Quick, test_bitstring_decodes_off_buffer);
    ("streaming recognition matches batch", `Quick, test_streaming_matches_batch);
    ("streaming recognition exits early", `Quick, test_streaming_early_exit);
    ("streaming stops at the pinned steps", `Quick, test_streaming_stops_where_pinned);
    ("run_streaming pushes the buffered events", `Quick, test_run_streaming_events_match_buffer);
    QCheck_alcotest.to_alcotest qcheck_branches_agrees_with_reference;
    ("embedding from a compiled capture is byte-identical", `Quick, test_embed_from_compiled_capture);
    ("jwm recognition matches recovery over the oracle trace", `Quick, test_recognition_matches_oracle);
    ("snapshot and recognition captures record the same events", `Quick, test_capture_modes_agree);
  ]
