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

(* The oracle's trace and the compiled captures must agree on everything
   embedding and recognition read: the snapshot capture on its result,
   block counts, snapshots and the order of [hot_blocks], ties included;
   [Trace.record] on the result and the packed branch events, which a
   snapshot capture does not record. *)
let captures_agree ?fuel prog ~input =
  let ti = Vm_oracle.capture ?fuel prog ~input in
  let tc = Trace.capture ?fuel prog ~input in
  let events, result = Trace.record ?fuel prog ~input in
  ti.Trace.result = tc.Trace.result
  && ti.Trace.result = result
  && Tracebuf.to_packed_list ti.Trace.events = Tracebuf.to_packed_list events
  && Tracebuf.length tc.Trace.events = 0
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
    (QCheck.int_bound 1_000_000)
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

(* ---- fused forms ----

   Programs dense in the instruction sequences the translation fuses, and
   in their near misses: operands one short on the stack, local or global
   slots just out of range, array handles and indices that may be bad,
   Div and Rem by zero, branch targets anywhere — into the middle of a
   form, making a leader inside it, or past the code.  Every fuel cut of
   a run goes through the interpreter, the plain translation, the hooked
   translation and the streaming run of each, which must agree on
   everything observable; the streams are also stopped at each event. *)

let fused_program rng =
  let pick a = a.(Util.Prng.int rng (Array.length a)) in
  let nlocals = 3 and nglobals = 2 in
  (* most programs make one kind of near miss, often enough that several
     are reached, rarely enough that the run goes on for a while: 1 an
     operand short on the stack, 2 a local slot out of range, 3 a global
     slot, 4 a zero divisor, 5 a bad array handle or index *)
  let miss = Util.Prng.int rng 6 in
  let rare kind = miss = kind && Util.Prng.int rng 8 = 0 in
  let slot () = if rare 2 then pick [| -1; nlocals |] else Util.Prng.int rng nlocals in
  let global () = if rare 3 then pick [| -1; nglobals |] else Util.Prng.int rng nglobals in
  let k () = if rare 4 then 0 else 1 + Util.Prng.int rng 2 in
  let binop () = pick Instr.[| Add; Sub; Mul; Div; Rem; Add; Sub; And; Or; Xor; Shl; Shr |] in
  let cmp () = pick Instr.[| Eq; Ne; Lt; Le; Gt; Ge |] in
  (* one value on the stack, pushed by ops no form starts with *)
  let one () = if rare 1 then [] else Instr.[ Load (slot ()); Neg; Neg ] in
  let two () = one () @ one () in
  let jump = Instr.Jump (-1000) and branch () = Instr.If { sense = Util.Prng.bool rng; target = -1000 } in
  (* each chunk leaves the operand stack as it found it, so a run lives on
     until a near miss or a branch into a chunk's middle upsets it *)
  let chunk ~in_main =
    match Util.Prng.int rng (if in_main then 22 else 21) with
    | 0 -> Instr.[ Load (slot ()); Const (k ()); Cmp (cmp ()); branch () ]
    | 1 -> Instr.[ Load (slot ()); Load (slot ()); Cmp (cmp ()); branch () ]
    | 2 -> Instr.[ Load (slot ()); Const (k ()); Binop (binop ()); Store (slot ()) ]
    | 3 -> Instr.[ Get_global (global ()); Load (slot ()); Array_load; Store (slot ()) ]
    | 4 -> one () @ Instr.[ Load (slot ()); Cmp (cmp ()); branch () ]
    | 5 -> one () @ Instr.[ Const (k ()); Cmp (cmp ()); branch () ]
    | 6 -> Instr.[ Load (slot ()); Load (slot ()); Binop (binop ()); Print ]
    | 7 -> one () @ Instr.[ Const (k ()); Binop (binop ()); Store (slot ()) ]
    | 8 -> two () @ Instr.[ Cmp (cmp ()); branch () ]
    | 9 -> one () @ Instr.[ Store (slot ()); jump ]
    | 10 -> Instr.[ Get_global (global ()); Nop; Load (slot ()); Array_load; Print ]
    | 11 -> Instr.[ Get_global (global ()); Load (slot ()); Binop (binop ()); Print ]
    | 12 -> two () @ Instr.[ Binop (binop ()); Store (slot ()) ]
    | 13 -> Instr.[ Load (slot ()); Load (slot ()); Swap; Binop (binop ()); Print ]
    | 14 -> Instr.[ Load (slot ()); Const (k ()); Swap; Binop (binop ()); Store (slot ()) ]
    | 15 -> Instr.[ Const (if rare 4 || rare 5 then pick [| 0; 5; -1 |] else k ()); Store (slot ()) ]
    | 16 -> Instr.[ Const (k ()); Const (k ()); Cmp (cmp ()); branch () ]
    | 17 -> Instr.[ Load (slot ()); Const (k ()); Binop (binop ()); Set_global (global ()) ]
    | 18 -> Instr.[ Const (if rare 5 then pick [| 7; -1 |] else Util.Prng.int rng 2); Set_global (global ()) ]
    | 19 -> Instr.[ Get_global (global ()); Load (slot ()); Const (k ()); Array_store ]
    | 20 -> Instr.[ Read; Store (slot ()) ]
    | _ -> Instr.[ Load (slot ()); Call "f"; Store (slot ()) ]
  in
  (* branch targets: mostly a chunk's first pc, else any pc — often inside
     a form — or just outside the code *)
  let body ~in_main prelude tail =
    let chunks = prelude :: List.init (3 + Util.Prng.int rng 10) (fun _ -> chunk ~in_main) @ [ tail ] in
    let firsts = Array.of_list (List.rev (snd (List.fold_left (fun (pc, acc) c -> (pc + List.length c, pc :: acc)) (0, []) chunks))) in
    let code = List.concat chunks in
    let len = List.length code in
    let target () =
      match Util.Prng.int rng 10 with
      | 0 -> pick [| -1; len; len + 3 |]
      | 1 | 2 -> Util.Prng.int rng len
      | _ -> pick firsts
    in
    List.map
      (function
        | Instr.If { sense; target = -1000 } -> Instr.If { sense; target = target () }
        | Instr.Jump -1000 -> Instr.Jump (target ())
        | i -> i)
      code
  in
  (* both globals start as array handles, 3 and 2 long, and the locals
     as small nonzero indices and divisors *)
  let prelude =
    Instr.[ Const 3; New_array; Set_global 0; Const 2; New_array; Set_global 1; Const 1; Store 0; Const 2; Store 1; Const 1; Store 2 ]
  in
  let main_tail = if Util.Prng.bool rng then Instr.[ Load 0; Ret ] else [] in
  Program.make ~nglobals ~main:"main"
    [
      Program.func ~name:"main" ~nargs:0 ~nlocals (body ~in_main:true prelude main_tail);
      Program.func ~name:"f" ~nargs:1 ~nlocals (body ~in_main:false [] Instr.[ Load 0; Ret ]);
    ]

(* a run's observable behaviour, or the exception it escaped with *)
let observe f =
  match f () with
  | (r : Interp.result), buf, log ->
      Printf.sprintf "%s %s [%s] events [%s] %s" (show_result r buf)
        (match r.Interp.outcome with
        | Interp.Trapped { fidx; pc; reason } -> Printf.sprintf "%d:%d:%s" fidx pc reason
        | _ -> "")
        (String.concat "," (List.map string_of_int r.Interp.outputs))
        (String.concat "," (List.map string_of_int (Tracebuf.to_packed_list buf)))
        (match log with Some l -> show_log l | None -> "")
  | exception e -> "raised " ^ Printexc.to_string e

let fused_forms_agree prog input =
  let plain = Compile.of_program prog in
  let log = ref (block_log ()) in
  let hooked =
    Compile.of_program prog ~on_block:(fun ~fidx ~pc ~locals ~lbase ~globals ->
        log_block !log ~fidx ~pc locals ~lbase ~nlocals:prog.Program.funcs.(fidx).Program.nlocals globals)
  in
  let interp fuel =
    let r, buf, l = interp_run ~fuel prog input in
    (r, buf, Some l)
  in
  let compiled code ~with_log fuel =
    log := block_log ();
    let buf = Tracebuf.create () in
    let r = Compile.run ~trace:buf ~fuel code ~input in
    (r, buf, if with_log then Some !log else None)
  in
  (* the same run through [run_streaming], pushing into a buffer *)
  let streamed code ~with_log fuel =
    log := block_log ();
    let buf = Tracebuf.create () in
    match
      Compile.run_streaming ~fuel code ~input ~push:(fun e ->
          Tracebuf.add_packed buf e;
          false)
    with
    | `Completed r -> (r, buf, if with_log then Some !log else None)
    | `Stopped _ -> failwith "stopped without being asked"
  in
  (* per fuel cut, the interpreter's event count, for the stop points *)
  let events_at = Array.make 402 0 in
  let fail what fuel expected got =
    QCheck.Test.fail_reportf "%s at fuel %d:@.interp   %s@.compiled %s" what fuel expected got
  in
  let compare_at fuel =
    let run = match interp fuel with v -> Ok v | exception e -> Error e in
    let replay () = match run with Ok v -> v | Error e -> raise e in
    let expected = observe replay in
    let expected_plain = observe (fun () -> match replay () with r, buf, _ -> (r, buf, None)) in
    List.iter
      (fun (what, expected, got) -> if expected <> got then fail what fuel expected got)
      [
        ("plain", expected_plain, observe (fun () -> compiled plain ~with_log:false fuel));
        ("hooked", expected, observe (fun () -> compiled hooked ~with_log:true fuel));
        ("plain stream", expected_plain, observe (fun () -> streamed plain ~with_log:false fuel));
        ("hooked stream", expected, observe (fun () -> streamed hooked ~with_log:true fuel));
      ];
    run
  in
  (* every cut up to the first that the run ends before, or raises at *)
  let rec cut fuel =
    match compare_at fuel with
    | Ok (r, buf, _) ->
        events_at.(fuel) <- Tracebuf.length buf;
        if r.Interp.outcome = Interp.Out_of_fuel && fuel < 400 then cut (fuel + 1) else fuel
    | Error _ ->
        (* the events before the escape are the previous cut's *)
        if fuel > 0 then events_at.(fuel) <- events_at.(fuel - 1);
        fuel
  in
  let last = cut 0 in
  (* a run that ends on its own ends the same with fuel to spare, where a
     form at its last step no longer falls back for want of fuel *)
  let ample = last + 3 in
  ignore (compare_at ample);
  (* stop each stream at its k-th event: the steps are those at which the
     interpreter's run first reaches k events *)
  for k = 1 to events_at.(last) do
    let expected = ref 0 in
    while events_at.(!expected) < k do
      incr expected
    done;
    List.iter
      (fun (what, code) ->
        let seen = ref 0 in
        match Compile.run_streaming ~fuel:ample code ~input ~push:(fun _ -> incr seen; !seen = k) with
        | `Stopped steps ->
            if steps <> !expected then
              fail (Printf.sprintf "%s stopped at event %d" what k) ample (string_of_int !expected)
                (string_of_int steps)
        | `Completed _ -> fail (Printf.sprintf "%s not stopped at event %d" what k) ample "stopped" "completed"
        | exception e -> fail (Printf.sprintf "%s stopped at event %d" what k) ample "stopped" (Printexc.to_string e))
      [ ("plain stream", plain); ("hooked stream", hooked) ]
  done;
  true

let qcheck_fused_forms_agree =
  QCheck.Test.make ~name:"fused forms agree with interp at every fuel cut" ~count:200 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Prng.create (Int64.of_int (seed + 1009)) in
      fused_forms_agree (fused_program rng) [ 3; 0; 7; -1 ])

(* the generator does reach the forms: most programs get several, and no
   form spans a block leader *)
let test_fused_programs_have_forms () =
  let forms = ref 0 and programs_with_forms = ref 0 in
  for seed = 0 to 199 do
    let prog = fused_program (Util.Prng.create (Int64.of_int (seed + 1009))) in
    let lengths = Compile.fused_lengths prog in
    let here = ref 0 in
    Array.iteri
      (fun fidx per_pc ->
        let starts = Program.block_starts prog.Program.funcs.(fidx) in
        Array.iteri
          (fun pc n ->
            if n > 1 then begin
              incr here;
              for inside = pc + 1 to pc + n - 1 do
                if starts.(inside) then Alcotest.failf "seed %d: a form at %d:%d spans the leader %d" seed fidx pc inside
              done
            end)
          per_pc)
      lengths;
    forms := !forms + !here;
    if !here >= 3 then incr programs_with_forms
  done;
  Alcotest.(check bool) (Printf.sprintf "%d forms, %d programs with 3 or more" !forms !programs_with_forms) true
    (!programs_with_forms >= 150)

(* Fusion is invisible to every equivalence check, so its reach is held
   on its own: over the workloads' runs, the ops dispatched per
   instruction executed.  A block entered [n] times runs every one of its
   instructions [n] times (a call returns into the block it left), so its
   dispatches are [n] times the ops its segmentation places; the same
   count of instructions must give the run's steps exactly. *)
let test_fused_dispatches_per_step () =
  let steps = ref 0 and dispatches = ref 0 in
  List.iter
    (fun (wl : Workloads.Workload.t) ->
      let prog = Workloads.Workload.vm_program wl in
      let trace = Trace.capture prog ~input:wl.Workloads.Workload.input in
      let lengths = Compile.fused_lengths prog in
      let modeled = ref 0 in
      Hashtbl.iter
        (fun (fidx, leader) n ->
          let f = prog.Program.funcs.(fidx) in
          let starts = Program.block_starts f in
          let len = Array.length f.Program.code in
          let pc = ref leader and ops = ref 0 in
          while !pc < len && (!pc = leader || not starts.(!pc)) do
            incr ops;
            pc := !pc + lengths.(fidx).(!pc)
          done;
          modeled := !modeled + (n * (!pc - leader));
          dispatches := !dispatches + (n * !ops))
        trace.Trace.block_counts;
      Alcotest.(check int) (wl.Workloads.Workload.name ^ ": instructions from block counts")
        trace.Trace.result.Interp.steps !modeled;
      steps := !steps + !modeled)
    Vm_corpus.workloads;
  let per_step = float_of_int !dispatches /. float_of_int !steps in
  Alcotest.(check bool) (Printf.sprintf "%.3f dispatches per step" per_step) true (per_step < 0.6)

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
    (Util.Bitstring.to_string (Trace.bits_of_buf trace.Trace.events))
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
        stops;
      (* the registry's streamed run asks jwm's sink at the same cadence *)
      let (module W : Scheme.Watermarker.WATERMARKER) = Scheme.Builtin.find_exn "jwm" in
      let spec = Scheme.Watermarker.spec ~key:Vm_corpus.key ~bits:e.bits ~input:e.input () in
      let s = (Option.get W.sink) spec in
      Alcotest.(check bool) (name ^ ": run_sink stops at the pinned step") true
        (Scheme.Watermarker.run_sink s spec e.program = `Stopped (List.assoc 4096 stops));
      Alcotest.(check bool) (name ^ ": run_sink mark recovered") true
        (Option.equal Bignum.equal e.mark (s.Scheme.Watermarker.finish ()).value))
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
    (QCheck.int_bound 1_000_000)
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
   whole or cut short by fuel, they must end with the same result, and
   the block-hooked translation a snapshot capture runs must, traced,
   record the recognition capture's packed events.  Only the
   recognition-only capture records the events and unpacks them into
   [branches]; embedding never reads either. *)

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
          let hooked, hooked_events, _ = hooked_run ?fuel e.program e.input in
          Alcotest.(check string)
            (name ^ ": same run")
            (show_result plain.Trace.result plain.Trace.events)
            (show_result snap.Trace.result hooked_events);
          Alcotest.(check bool)
            (name ^ ": same result")
            true
            (plain.Trace.result = snap.Trace.result && hooked = snap.Trace.result);
          Alcotest.(check bool)
            (name ^ ": same packed events")
            true
            (Tracebuf.to_packed_list plain.Trace.events = Tracebuf.to_packed_list hooked_events);
          Alcotest.(check int)
            (name ^ ": snapshot capture records none")
            0
            (Tracebuf.length snap.Trace.events);
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

(* ---- program size without serializing ---- *)

let size_matches name prog =
  Alcotest.(check int) (name ^ ": size") (String.length (Serialize.encode prog)) (Serialize.size_in_bytes prog)

(* every workload unmarked and jwm-marked (the corpus), gwm-marked, and
   operands at the varint and zigzag byte boundaries *)
let test_size_in_bytes_counts_encoding () =
  List.iter (fun (e : Vm_corpus.entry) -> size_matches e.name e.program) (Lazy.force Vm_corpus.entries);
  List.iter
    (fun (wl : Workloads.Workload.t) ->
      let spec =
        {
          Gwm.Embed.passphrase = Vm_corpus.key;
          watermark = Bignum.of_string "987654321987654321";
          watermark_bits = 64;
          copies = 8;
          input = wl.Workloads.Workload.input;
        }
      in
      size_matches (wl.Workloads.Workload.name ^ "/gwm-64")
        (Gwm.Embed.embed ~seed:7L spec (Workloads.Workload.vm_program wl)).Gwm.Embed.program)
    Vm_corpus.workloads;
  let consts = [ 0; 1; -1; 63; 64; -64; -65; 8191; 8192; max_int; min_int; max_int / 2; min_int / 2 ] in
  let slots = [ 0; 127; 128; 16383; 16384; max_int ] in
  let code =
    List.map (fun n -> Instr.Const n) consts
    @ List.concat_map (fun n -> [ Instr.Load n; Instr.Set_global n; Instr.Jump n ]) slots
    @ [ Instr.Call (String.make 200 'f'); Instr.If { sense = false; target = 300 }; Instr.Ret ]
  in
  let main = String.make 130 'm' in
  size_matches "boundaries"
    {
      Program.funcs = [| { Program.name = main; nargs = 128; nlocals = 300; code = Array.of_list code } |];
      nglobals = 16384;
      main;
    }

let qcheck_size_in_bytes_random =
  QCheck.Test.make ~name:"size_in_bytes counts what encode writes on random programs" ~count:200
    (QCheck.int_bound 1_000_000)
    (fun seed ->
      let prog = Test_stackvm.random_program (Util.Prng.create (Int64.of_int seed)) in
      Serialize.size_in_bytes prog = String.length (Serialize.encode prog))

let suite =
  [
    ("all workloads agree across backends", `Quick, test_workloads_agree);
    ("out-of-range pcs agree across backends", `Quick, test_bad_pcs_agree);
    ("fall-through into a block at every fuel cut", `Quick, test_fallthrough_cuts);
    QCheck_alcotest.to_alcotest qcheck_random_programs_agree;
    QCheck_alcotest.to_alcotest qcheck_fused_forms_agree;
    ("fuzzed programs reach the fused forms", `Quick, test_fused_programs_have_forms);
    ("fused forms cut the dispatches per step", `Quick, test_fused_dispatches_per_step);
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
    ("snapshot and recognition captures reach the same run", `Quick, test_capture_modes_agree);
    ("size_in_bytes counts what encode writes", `Quick, test_size_in_bytes_counts_encoding);
    QCheck_alcotest.to_alcotest qcheck_size_in_bytes_random;
  ]
