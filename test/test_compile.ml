(* Equivalence tests for the compiled execution backend: the threaded-code
   translation must be observationally indistinguishable from the
   interpreter — same outcome (incl. trap reasons and positions), same
   outputs, same step count, same branch-event sequence — plus unit tests
   for the packed trace buffer and the streaming recognition mode. *)

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

(* run both backends and insist on identical observable behaviour *)
let agree ?fuel name prog input =
  let buf_i = Tracebuf.create () in
  let observer =
    {
      Interp.on_block = (fun ~fidx:_ ~pc:_ ~locals:_ ~globals:_ -> ());
      Interp.on_branch = (fun ~fidx ~pc ~taken -> Tracebuf.add buf_i ~fidx ~pc ~taken);
    }
  in
  let ri = Interp.run ~observer ?fuel prog ~input in
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
    (Tracebuf.to_packed_list buf_i = Tracebuf.to_packed_list buf_c)

let test_workloads_agree () =
  List.iter
    (fun (wl : Workloads.Workload.t) ->
      let prog = Workloads.Workload.vm_program wl in
      let input = wl.Workloads.Workload.input in
      agree wl.Workloads.Workload.name prog input;
      agree ~fuel:500 (wl.Workloads.Workload.name ^ "/fuel500") prog input;
      agree ~fuel:1 (wl.Workloads.Workload.name ^ "/fuel1") prog input)
    Workloads.Spec.all

(* unverified programs whose control flow escapes the code array: the
   compiled backend's sentinel slot and Bad_pc replay must reproduce the
   interpreter's "pc out of range" trap, step for step, at every fuel *)
let test_bad_pcs_agree () =
  let mk code =
    {
      Program.funcs = [| { Program.name = "main"; nargs = 0; nlocals = 1; code } |];
      nglobals = 0;
      main = "main";
    }
  in
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
    ]
  in
  List.iter
    (fun (name, prog) ->
      agree name prog [];
      for fuel = 0 to 6 do
        agree ~fuel (Printf.sprintf "%s/fuel%d" name fuel) prog []
      done)
    progs

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
          let buf_i = Tracebuf.create () in
          let observer =
            {
              Interp.on_block = (fun ~fidx:_ ~pc:_ ~locals:_ ~globals:_ -> ());
              Interp.on_branch = (fun ~fidx ~pc ~taken -> Tracebuf.add buf_i ~fidx ~pc ~taken);
            }
          in
          let ri = Interp.run ~observer ~fuel prog ~input in
          let buf_c = Tracebuf.create () in
          let rc = Compile.run ~trace:buf_c ~fuel (Compile.of_program prog) ~input in
          ri.Interp.outcome = rc.Interp.outcome
          && ri.Interp.outputs = rc.Interp.outputs
          && ri.Interp.steps = rc.Interp.steps
          && Tracebuf.to_packed_list buf_i = Tracebuf.to_packed_list buf_c)
        [ 3; 50; 400 ])

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
  (* the buffer decoder and the compat event-record decoder must agree *)
  let wl = Workloads.Spec.find "bzip2" in
  let trace =
    Trace.capture ~want_snapshots:false (Workloads.Workload.vm_program wl)
      ~input:wl.Workloads.Workload.input
  in
  Alcotest.(check bool) "fixture has events" true (Array.length trace.Trace.branches > 0);
  Alcotest.(check string) "bits identical"
    (Util.Bitstring.to_string (Trace.bitstring trace))
    (Util.Bitstring.to_string (Trace.bits_of_branches (Array.to_list trace.Trace.branches)))

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

(* ---- fault injection over packed buffers ---- *)

let qcheck_branches_buf_agrees =
  QCheck.Test.make ~name:"Inject.branches_buf agrees with Inject.branches" ~count:100
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
      let plan =
        Fault.Inject.make ~seed:(Int64.of_int (seed * 31 + 5))
          [
            Fault.Spec.Trace_flip 0.2;
            Fault.Spec.Trace_drop 0.1;
            Fault.Spec.Trace_dup 0.15;
            Fault.Spec.Trace_trunc 0.3;
          ]
      in
      let salt = Printf.sprintf "salt-%d" (seed mod 3) in
      let via_list, n_list = Fault.Inject.branches plan ~salt events in
      let via_buf, n_buf = Fault.Inject.branches_buf plan ~salt (Trace.buf_of_branches events) in
      n_list = n_buf && via_list = Array.to_list (Trace.branches_of_buf via_buf))

let suite =
  [
    ("all workloads agree across backends", `Quick, test_workloads_agree);
    ("out-of-range pcs agree across backends", `Quick, test_bad_pcs_agree);
    QCheck_alcotest.to_alcotest qcheck_random_programs_agree;
    ("tracebuf pack/unpack roundtrip", `Quick, test_tracebuf_pack_roundtrip);
    ("tracebuf operations", `Quick, test_tracebuf_ops);
    ("bitstring decodes identically off buffer", `Quick, test_bitstring_decodes_off_buffer);
    ("streaming recognition matches batch", `Quick, test_streaming_matches_batch);
    ("streaming recognition exits early", `Quick, test_streaming_early_exit);
    ("run_streaming pushes the buffered events", `Quick, test_run_streaming_events_match_buffer);
    QCheck_alcotest.to_alcotest qcheck_branches_buf_agrees;
  ]
