(* Tests for the stack VM: interpreter semantics, verifier, tracing,
   rewriting, serialization. *)

open Stackvm

let run_main ?(input = []) items =
  let f = Asm.func ~name:"main" ~nargs:0 ~nlocals:8 items in
  let prog = Program.make [ f ] in
  Verify.check_exn prog;
  Interp.run prog ~input

let expect_finished result =
  match result.Interp.outcome with
  | Interp.Finished v -> v
  | Interp.Trapped { reason; _ } -> Alcotest.failf "trapped: %s" reason
  | Interp.Out_of_fuel -> Alcotest.fail "out of fuel"

let test_arith () =
  let r = run_main Asm.[ I (Const 6); I (Const 7); I (Binop Mul); I Ret ] in
  Alcotest.(check int) "6*7" 42 (expect_finished r)

let test_all_binops () =
  let check op a b expected =
    let r = run_main Asm.[ I (Const a); I (Const b); I (Binop op); I Ret ] in
    Alcotest.(check int) (Instr.to_string (Binop op)) expected (expect_finished r)
  in
  check Add 3 4 7;
  check Sub 3 4 (-1);
  check Mul (-3) 4 (-12);
  check Div 17 5 3;
  check Rem 17 5 2;
  check And 12 10 8;
  check Or 12 10 14;
  check Xor 12 10 6;
  check Shl 3 4 48;
  check Shr (-16) 2 (-4)

let test_cmp () =
  let check c a b expected =
    let r = run_main Asm.[ I (Const a); I (Const b); I (Cmp c); I Ret ] in
    Alcotest.(check int) (Instr.to_string (Cmp c)) expected (expect_finished r)
  in
  check Eq 3 3 1;
  check Eq 3 4 0;
  check Ne 3 4 1;
  check Lt 3 4 1;
  check Le 4 4 1;
  check Gt 4 3 1;
  check Ge 2 3 0

let test_locals_and_stack_ops () =
  let r =
    run_main
      Asm.[
        I (Const 5); I (Store 0);
        I (Load 0); I Dup; I (Binop Add); (* 10 *)
        I (Const 1); I Swap; I (Binop Sub); (* 1 - 10 = -9 *)
        I Neg; I Ret;
      ]
  in
  Alcotest.(check int) "dup/swap/neg" 9 (expect_finished r)

let test_not () =
  Alcotest.(check int) "not 0" 1 (expect_finished (run_main Asm.[ I (Const 0); I Not; I Ret ]));
  Alcotest.(check int) "not 5" 0 (expect_finished (run_main Asm.[ I (Const 5); I Not; I Ret ]))

let test_branching_loop () =
  (* sum 1..10 via a loop *)
  let r =
    run_main
      Asm.[
        I (Const 0); I (Store 0); (* acc *)
        I (Const 1); I (Store 1); (* i *)
        L "loop";
        I (Load 1); I (Const 10); I (Cmp Gt); Br (true, "done");
        I (Load 0); I (Load 1); I (Binop Add); I (Store 0);
        I (Load 1); I (Const 1); I (Binop Add); I (Store 1);
        Jmp "loop";
        L "done";
        I (Load 0); I Ret;
      ]
  in
  Alcotest.(check int) "sum 1..10" 55 (expect_finished r)

let test_calls () =
  let square = Asm.func ~name:"square" ~nargs:1 ~nlocals:1 Asm.[ I (Load 0); I (Load 0); I (Binop Mul); I Ret ] in
  let add = Asm.func ~name:"add" ~nargs:2 ~nlocals:2 Asm.[ I (Load 0); I (Load 1); I (Binop Add); I Ret ] in
  let main =
    Asm.func ~name:"main" ~nargs:0 ~nlocals:0
      Asm.[ I (Const 3); I (Call "square"); I (Const 4); I (Call "square"); I (Call "add"); I Ret ]
  in
  let prog = Program.make [ square; add; main ] in
  Verify.check_exn prog;
  let r = Interp.run prog ~input:[] in
  Alcotest.(check int) "3^2 + 4^2" 25 (expect_finished r)

let test_recursion () =
  let fact =
    Asm.func ~name:"fact" ~nargs:1 ~nlocals:1
      Asm.[
        I (Load 0); I (Const 1); I (Cmp Le); Br (true, "base");
        I (Load 0); I (Load 0); I (Const 1); I (Binop Sub); I (Call "fact"); I (Binop Mul); I Ret;
        L "base"; I (Const 1); I Ret;
      ]
  in
  let main = Asm.func ~name:"main" ~nargs:0 ~nlocals:0 Asm.[ I (Const 10); I (Call "fact"); I Ret ] in
  let prog = Program.make [ fact; main ] in
  Verify.check_exn prog;
  Alcotest.(check int) "10!" 3628800 (expect_finished (Interp.run prog ~input:[]))

let test_arrays () =
  let r =
    run_main
      Asm.[
        I (Const 5); I New_array; I (Store 0);
        (* a[3] = 99 *)
        I (Load 0); I (Const 3); I (Const 99); I Array_store;
        (* a[3] + len(a) *)
        I (Load 0); I (Const 3); I Array_load;
        I (Load 0); I Array_len; I (Binop Add); I Ret;
      ]
  in
  Alcotest.(check int) "array ops" 104 (expect_finished r)

let test_globals () =
  let setter = Asm.func ~name:"setter" ~nargs:0 ~nlocals:0 Asm.[ I (Const 17); I (Set_global 0); I (Const 0); I Ret ] in
  let main =
    Asm.func ~name:"main" ~nargs:0 ~nlocals:0
      Asm.[ I (Call "setter"); I Pop; I (Get_global 0); I Ret ]
  in
  let prog = Program.make ~nglobals:1 [ setter; main ] in
  Verify.check_exn prog;
  Alcotest.(check int) "global carries value" 17 (expect_finished (Interp.run prog ~input:[]))

let test_io () =
  let r = run_main ~input:[ 7; 8 ] Asm.[ I Read; I Print; I Read; I Print; I (Const 0); I Ret ] in
  Alcotest.(check (list int)) "printed inputs" [ 7; 8 ] r.Interp.outputs

let test_traps () =
  let trap_reason items input =
    let f = Asm.func ~name:"main" ~nargs:0 ~nlocals:2 items in
    let prog = Program.make [ f ] in
    match (Interp.run prog ~input).Interp.outcome with
    | Interp.Trapped { reason; _ } -> reason
    | _ -> Alcotest.fail "expected trap"
  in
  Alcotest.(check string) "div by zero" "division by zero"
    (trap_reason Asm.[ I (Const 1); I (Const 0); I (Binop Div); I Ret ] []);
  Alcotest.(check string) "input exhausted" "input exhausted" (trap_reason Asm.[ I Read; I Ret ] []);
  Alcotest.(check string) "bad index" "array index out of bounds"
    (trap_reason Asm.[ I (Const 2); I New_array; I (Const 5); I Array_load; I Ret ] [])

let test_fuel () =
  let f = Asm.func ~name:"main" ~nargs:0 ~nlocals:0 Asm.[ L "spin"; Jmp "spin"; I (Const 0); I Ret ] in
  let prog = Program.make [ f ] in
  match (Interp.run ~fuel:1000 prog ~input:[]).Interp.outcome with
  | Interp.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected out of fuel"

(* ---- verifier ---- *)

let expect_reject ?(nglobals = 0) funcs =
  match Verify.check (Program.make ~nglobals funcs) with
  | Ok () -> Alcotest.fail "verifier accepted bad program"
  | Error _ -> ()

let test_verify_rejects_underflow () =
  expect_reject [ Asm.func ~name:"main" ~nargs:0 ~nlocals:0 Asm.[ I (Binop Add); I Ret ] ]

let test_verify_rejects_depth_mismatch () =
  (* One path pushes two values, the other one; merge point is inconsistent. *)
  expect_reject
    [
      Asm.func ~name:"main" ~nargs:0 ~nlocals:1
        Asm.[
          I (Load 0); Br (true, "deep");
          I (Const 1); Jmp "merge";
          L "deep"; I (Const 1); I (Const 2);
          L "merge"; I Ret;
        ];
    ]

let test_verify_rejects_bad_target () =
  expect_reject [ Program.func ~name:"main" ~nargs:0 ~nlocals:0 [ Instr.Jump 99; Instr.Const 0; Instr.Ret ] ]

let test_verify_rejects_bad_slot () =
  expect_reject [ Asm.func ~name:"main" ~nargs:0 ~nlocals:1 Asm.[ I (Load 3); I Ret ] ]

let test_verify_rejects_unknown_call () =
  expect_reject [ Asm.func ~name:"main" ~nargs:0 ~nlocals:0 Asm.[ I (Call "ghost"); I Ret ] ]

let test_verify_rejects_fall_off_end () =
  expect_reject [ Program.func ~name:"main" ~nargs:0 ~nlocals:0 [ Instr.Const 1; Instr.Pop ] ]

let test_verify_rejects_ret_depth () =
  expect_reject [ Asm.func ~name:"main" ~nargs:0 ~nlocals:0 Asm.[ I (Const 1); I (Const 2); I Ret ] ]

let test_verify_rejects_missing_main () =
  expect_reject [ Asm.func ~name:"not_main" ~nargs:0 ~nlocals:0 Asm.[ I (Const 0); I Ret ] ]

let test_verify_rejects_read_before_write () =
  (* Depths agree on both arms of the diamond, so only the
     definite-assignment rule can reject this: the fall-through path
     reaches the load without ever storing slot 1. *)
  let f =
    Asm.func ~name:"main" ~nargs:0 ~nlocals:2
      Asm.[
        I Read; Br (true, "write");
        Jmp "merge";
        L "write"; I (Const 7); I (Store 1);
        L "merge"; I (Load 1); I Ret;
      ]
  in
  match Verify.check (Program.make [ f ]) with
  | Ok () -> Alcotest.fail "verifier accepted a read-before-write-on-some-path"
  | Error errs ->
      let mentions (e : Verify.error) =
        let sub = "may be read before assignment" and msg = e.Verify.message in
        let n = String.length sub in
        let rec at i = i + n <= String.length msg && (String.sub msg i n = sub || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "mentions definite assignment" true (List.exists mentions errs)

let test_verify_accepts_write_on_all_paths () =
  let f =
    Asm.func ~name:"main" ~nargs:0 ~nlocals:2
      Asm.[
        I Read; Br (true, "write");
        I (Const 3); I (Store 1); Jmp "merge";
        L "write"; I (Const 7); I (Store 1);
        L "merge"; I (Load 1); I Ret;
      ]
  in
  Verify.check_exn (Program.make [ f ])

(* ---- the paper's Figure 2 gcd example ---- *)

let gcd_program =
  (* void main() { int a = 25, b = 10; while ((a % b) != 0) { int tmp = b % a;
     b = a; a = tmp; } println(b); } — as in Figure 2 of the paper. *)
  Asm.func ~name:"main" ~nargs:0 ~nlocals:3
    Asm.[
      I (Const 25); I (Store 0);
      I (Const 10); I (Store 1);
      L "while";
      I (Load 0); I (Load 1); I (Binop Rem); I (Const 0); I (Cmp Ne); Br (false, "exit");
      I (Load 1); I (Load 0); I (Binop Rem); I (Store 2);
      I (Load 0); I (Store 1);
      I (Load 2); I (Store 0);
      Jmp "while";
      L "exit";
      I (Load 1); I Print;
      I (Const 0); I Ret;
    ]

let test_figure2_gcd () =
  let prog = Program.make [ gcd_program ] in
  Verify.check_exn prog;
  let r = Interp.run prog ~input:[] in
  Alcotest.(check (list int)) "prints gcd-ish result" [ 5 ] r.Interp.outputs

let test_trace_captures_branches () =
  let prog = Program.make [ gcd_program ] in
  let trace = Trace.capture prog ~input:[] in
  Alcotest.(check bool) "some branches" true (Array.length trace.Trace.branches > 0);
  (* Each while-iteration tests the loop condition once. *)
  let bits = Trace.bitstring trace in
  Alcotest.(check int) "one bit per branch event" (Array.length trace.Trace.branches)
    (Util.Bitstring.length bits)

let test_trace_first_occurrence_is_zero () =
  let prog = Program.make [ gcd_program ] in
  let trace = Trace.capture prog ~input:[] in
  let bits = Trace.bitstring trace in
  Alcotest.(check bool) "first bit is 0" false (Util.Bitstring.get bits 0)

let test_trace_snapshots () =
  let prog = Program.make [ gcd_program ] in
  let trace = Trace.capture prog ~input:[] in
  (* The loop head block is visited more than once with evolving locals. *)
  let multi =
    Hashtbl.fold (fun _ snaps acc -> acc || List.length snaps >= 2) trace.Trace.visits false
  in
  Alcotest.(check bool) "a block visited at least twice" true multi

let test_trace_bits_invariant_under_sense_inversion () =
  (* Inverting a branch sense (and restructuring) must not change the
     decoded bit-string: the paper designed the decoding for that. *)
  let f = gcd_program in
  (* Manually inverted variant: Br(false, exit) becomes Br(true, body') with
     a jump; simpler: flip sense and swap roles via trampoline. *)
  let inverted =
    Asm.func ~name:"main" ~nargs:0 ~nlocals:3
      Asm.[
        I (Const 25); I (Store 0);
        I (Const 10); I (Store 1);
        L "while";
        I (Load 0); I (Load 1); I (Binop Rem); I (Const 0); I (Cmp Ne); Br (true, "body");
        Jmp "exit";
        L "body";
        I (Load 1); I (Load 0); I (Binop Rem); I (Store 2);
        I (Load 0); I (Store 1);
        I (Load 2); I (Store 0);
        Jmp "while";
        L "exit";
        I (Load 1); I Print;
        I (Const 0); I Ret;
      ]
  in
  let p1 = Program.make [ f ] and p2 = Program.make [ inverted ] in
  let b1 = Trace.bitstring (Trace.capture p1 ~input:[]) in
  let b2 = Trace.bitstring (Trace.capture p2 ~input:[]) in
  Alcotest.(check string) "bit-strings equal" (Util.Bitstring.to_string b1) (Util.Bitstring.to_string b2)

(* ---- rewriting ---- *)

let test_insert_preserves_semantics () =
  let f = gcd_program in
  let prog = Program.make [ f ] in
  let f' = Rewrite.insert f ~at:2 [ Instr.Nop; Instr.Nop; Instr.Nop ] in
  let prog' = Program.make [ f' ] in
  Verify.check_exn prog';
  Alcotest.(check bool) "equivalent" true (Compile.equivalent_on prog prog' ~inputs:[ [] ])

let test_insert_at_branch_target () =
  (* Insert at a loop head: inserted code runs on every iteration. *)
  let f = gcd_program in
  (* loop head is pc 4 (after 4 setup instructions) *)
  let counter_code = [ Instr.Get_global 0; Instr.Const 1; Instr.Binop Instr.Add; Instr.Set_global 0 ] in
  let f' = Rewrite.insert f ~at:4 counter_code in
  let prog' = Program.with_globals (Program.make [ f' ]) 1 in
  Verify.check_exn prog';
  let r = Interp.run prog' ~input:[] in
  Alcotest.(check (list int)) "still prints 5" [ 5 ] r.Interp.outputs

let test_insert_with_internal_branch () =
  let f = gcd_program in
  (* snippet with an internal (relative) branch: if 0 goto +3 (skips a nop) *)
  let snippet = [ Instr.Const 0; Instr.If { sense = true; target = 3 }; Instr.Nop ] in
  let f' = Rewrite.insert f ~at:2 snippet in
  let prog' = Program.make [ f' ] in
  Verify.check_exn prog';
  Alcotest.(check bool) "equivalent" true
    (Compile.equivalent_on (Program.make [ f ]) prog' ~inputs:[ [] ])

let test_blocks_partition () =
  let bs = Rewrite.blocks gcd_program in
  let total = List.fold_left (fun acc (_, len) -> acc + len) 0 bs in
  Alcotest.(check int) "blocks cover code" (Array.length gcd_program.Program.code) total;
  List.iter (fun (_, len) -> Alcotest.(check bool) "nonempty" true (len > 0)) bs

let test_reorder_blocks_preserves_semantics () =
  let f = gcd_program in
  let bs = Rewrite.blocks f in
  let nb = List.length bs in
  let order = 0 :: List.rev (List.init (nb - 1) (fun i -> i + 1)) in
  let f' = Rewrite.reorder_blocks f ~order in
  let prog = Program.make [ f ] and prog' = Program.make [ f' ] in
  Verify.check_exn prog';
  Alcotest.(check bool) "equivalent" true (Compile.equivalent_on prog prog' ~inputs:[ [] ])

let test_reorder_blocks_preserves_trace_bits () =
  let f = gcd_program in
  let bs = Rewrite.blocks f in
  let nb = List.length bs in
  let order = 0 :: List.rev (List.init (nb - 1) (fun i -> i + 1)) in
  let f' = Rewrite.reorder_blocks f ~order in
  let b1 = Trace.bitstring (Trace.capture (Program.make [ f ]) ~input:[]) in
  let b2 = Trace.bitstring (Trace.capture (Program.make [ f' ]) ~input:[]) in
  Alcotest.(check string) "bit-string invariant" (Util.Bitstring.to_string b1) (Util.Bitstring.to_string b2)

(* ---- serialization ---- *)

let test_serialize_roundtrip () =
  let square = Asm.func ~name:"square" ~nargs:1 ~nlocals:2 Asm.[ I (Load 0); I (Load 0); I (Binop Mul); I Ret ] in
  let prog = Program.make ~nglobals:3 [ square; gcd_program ] in
  let prog' = Serialize.decode (Serialize.encode prog) in
  Alcotest.(check int) "nglobals" prog.Program.nglobals prog'.Program.nglobals;
  Alcotest.(check string) "main" prog.Program.main prog'.Program.main;
  Alcotest.(check int) "func count" (Array.length prog.Program.funcs) (Array.length prog'.Program.funcs);
  Array.iteri
    (fun i (f : Program.func) ->
      let f' = prog'.Program.funcs.(i) in
      Alcotest.(check string) "name" f.Program.name f'.Program.name;
      Alcotest.(check bool) "code equal" true (f.Program.code = f'.Program.code))
    prog.Program.funcs

let test_size_in_bytes_grows () =
  let prog = Program.make [ gcd_program ] in
  let bigger = Program.make [ Rewrite.insert gcd_program ~at:0 [ Instr.Nop; Instr.Nop ] ] in
  Alcotest.(check bool) "size grows with code" true
    (Serialize.size_in_bytes bigger > Serialize.size_in_bytes prog)

let qcheck_insert_equivalence =
  QCheck.Test.make ~name:"random nop insertion preserves gcd semantics" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (at0, len0) ->
      let f = gcd_program in
      (* not past the last instruction: a trailing Nop would fall off the end *)
      let at = at0 mod Array.length f.Program.code in
      let len = 1 + (len0 mod 4) in
      let f' = Rewrite.insert f ~at (List.init len (fun _ -> Instr.Nop)) in
      let prog = Program.make [ f ] and prog' = Program.make [ f' ] in
      match Verify.check prog' with
      | Error _ -> false
      | Ok () -> Compile.equivalent_on prog prog' ~inputs:[ [] ])

let suite =
  [
    ("arithmetic", `Quick, test_arith);
    ("all binops", `Quick, test_all_binops);
    ("comparisons", `Quick, test_cmp);
    ("locals and stack ops", `Quick, test_locals_and_stack_ops);
    ("not", `Quick, test_not);
    ("loop", `Quick, test_branching_loop);
    ("calls", `Quick, test_calls);
    ("recursion", `Quick, test_recursion);
    ("arrays", `Quick, test_arrays);
    ("globals", `Quick, test_globals);
    ("read/print", `Quick, test_io);
    ("traps", `Quick, test_traps);
    ("fuel", `Quick, test_fuel);
    ("verify rejects stack underflow", `Quick, test_verify_rejects_underflow);
    ("verify rejects depth mismatch", `Quick, test_verify_rejects_depth_mismatch);
    ("verify rejects bad target", `Quick, test_verify_rejects_bad_target);
    ("verify rejects bad slot", `Quick, test_verify_rejects_bad_slot);
    ("verify rejects unknown call", `Quick, test_verify_rejects_unknown_call);
    ("verify rejects falling off end", `Quick, test_verify_rejects_fall_off_end);
    ("verify rejects bad ret depth", `Quick, test_verify_rejects_ret_depth);
    ("verify rejects missing main", `Quick, test_verify_rejects_missing_main);
    ("verify rejects read-before-write on some path", `Quick, test_verify_rejects_read_before_write);
    ("verify accepts write on all paths", `Quick, test_verify_accepts_write_on_all_paths);
    ("figure 2 gcd example", `Quick, test_figure2_gcd);
    ("trace captures branches", `Quick, test_trace_captures_branches);
    ("first occurrence decodes to 0", `Quick, test_trace_first_occurrence_is_zero);
    ("trace snapshots", `Quick, test_trace_snapshots);
    ("bits invariant under sense inversion", `Quick, test_trace_bits_invariant_under_sense_inversion);
    ("insert preserves semantics", `Quick, test_insert_preserves_semantics);
    ("insert at branch target", `Quick, test_insert_at_branch_target);
    ("insert with internal branch", `Quick, test_insert_with_internal_branch);
    ("blocks partition code", `Quick, test_blocks_partition);
    ("reorder blocks preserves semantics", `Quick, test_reorder_blocks_preserves_semantics);
    ("reorder blocks preserves trace bits", `Quick, test_reorder_blocks_preserves_trace_bits);
    ("serialize roundtrip", `Quick, test_serialize_roundtrip);
    ("size grows", `Quick, test_size_in_bytes_grows);
    QCheck_alcotest.to_alcotest qcheck_insert_equivalence;
  ]

(* ---- serializer fuzzing and Rewrite.expand ---- *)

let random_program rng =
  let nfuncs = 1 + Util.Prng.int rng 3 in
  let funcs =
    List.init nfuncs (fun i ->
        let n = 3 + Util.Prng.int rng 20 in
        let code =
          List.init (n - 2) (fun _pc ->
              match Util.Prng.int rng 8 with
              | 0 -> Instr.Const (Util.Prng.int_in rng (-1000000) 1000000)
              | 1 -> Instr.Load (Util.Prng.int rng 4)
              | 2 -> Instr.Store (Util.Prng.int rng 4)
              | 3 -> Instr.Binop (Util.Prng.pick rng [| Instr.Add; Instr.Mul; Instr.Xor |])
              | 4 -> Instr.Jump (Util.Prng.int rng n)
              | 5 -> Instr.If { sense = Util.Prng.bool rng; target = Util.Prng.int rng n }
              | 6 -> Instr.Nop
              | _ -> Instr.Cmp (Util.Prng.pick rng [| Instr.Eq; Instr.Lt |]);
              )
          @ [ Instr.Const 0; Instr.Ret ]
        in
        Program.func ~name:(Printf.sprintf "f%d" i) ~nargs:0 ~nlocals:4 code)
  in
  Program.make ~nglobals:(Util.Prng.int rng 4) ~main:"f0"
    (List.mapi (fun i f -> if i = 0 then { f with Program.name = "f0" } else f) funcs)

let qcheck_serialize_fuzz =
  QCheck.Test.make ~name:"serialize roundtrips random (possibly invalid) programs" ~count:200
    QCheck.small_nat
    (fun seed ->
      let rng = Util.Prng.create (Int64.of_int (seed + 42)) in
      let p = random_program rng in
      let p' = Serialize.decode (Serialize.encode p) in
      Serialize.encode p = Serialize.encode p')

let test_serialize_rejects_garbage () =
  List.iter
    (fun s ->
      match Serialize.decode s with
      | _ -> Alcotest.failf "accepted garbage %S" s
      | exception Failure _ -> ())
    [ ""; "SVM"; "XYZ1\x00\x00"; "SVM1"; "SVM1\xFF\xFF\xFF\xFF\xFF" ]

let test_expand_identity () =
  let f = gcd_program in
  let f' = Rewrite.expand f ~f:(fun _ _ -> None) in
  Alcotest.(check bool) "identity expand" true (f.Program.code = f'.Program.code)

let test_expand_doubles_nops () =
  let f = gcd_program in
  let f' = Rewrite.expand f ~f:(fun _ i -> Some [ Instr.Nop; i ]) in
  Alcotest.(check int) "twice the size" (2 * Array.length f.Program.code) (Array.length f'.Program.code);
  let p = Program.make [ f ] and p' = Program.make [ f' ] in
  Verify.check_exn p';
  Alcotest.(check bool) "equivalent" true (Compile.equivalent_on p p' ~inputs:[ [] ])

let extra_suite =
  [
    QCheck_alcotest.to_alcotest qcheck_serialize_fuzz;
    ("serialize rejects garbage", `Quick, test_serialize_rejects_garbage);
    ("expand identity", `Quick, test_expand_identity);
    ("expand doubles with nops", `Quick, test_expand_doubles_nops);
  ]

let suite = suite @ extra_suite

(* ---- trace persistence ---- *)

let test_trace_save_load () =
  let prog = Program.make [ gcd_program ] in
  let trace = Trace.capture prog ~input:[] in
  let loaded = Trace.load_branches (Trace.save trace) in
  Alcotest.(check int) "event count" (Array.length trace.Trace.branches) (List.length loaded);
  Alcotest.(check bool) "events identical" true (Array.to_list trace.Trace.branches = loaded);
  (* the decoded bit-string is identical, so offline recognition works *)
  Alcotest.(check string) "bits identical"
    (Util.Bitstring.to_string (Trace.bitstring trace))
    (Util.Bitstring.to_string (Trace.bits_of_branches loaded))

let test_trace_load_garbage () =
  (* loading is total: garbage salvages to zero events plus a diagnostic *)
  List.iter
    (fun s ->
      let events, diag = Trace.salvage_branches s in
      Alcotest.(check (list unit)) (Printf.sprintf "no events from %S" s) [] (List.map ignore events);
      Alcotest.(check bool) (Printf.sprintf "diagnostic for %S" s) true (diag <> None))
    [ ""; "TRC"; "XXXX"; "TRC1\xFF" ]

let test_trace_save_load_empty () =
  (* a branch-free program yields zero events; the round-trip must still work *)
  let f = Asm.func ~name:"main" ~nargs:0 ~nlocals:1 Asm.[ I (Instr.Const 0); I Instr.Ret ] in
  let trace = Trace.capture (Program.make [ f ]) ~input:[] in
  Alcotest.(check int) "no branch events" 0 (Array.length trace.Trace.branches);
  Alcotest.(check (list unit)) "empty round-trip" []
    (List.map ignore (Trace.load_branches (Trace.save trace)))

let test_trace_save_load_large () =
  (* thousands of events with pc values past 127, so varints span bytes *)
  let count_to_0 =
    Asm.func ~name:"main" ~nargs:0 ~nlocals:2
      (Asm.[
        I Instr.Read; I (Instr.Store 0);
        (* padding pushes the loop's branch pc beyond one varint byte *)
        I (Instr.Const 1); I (Instr.Const 2); I (Instr.Const 3); I (Instr.Const 4);
        I (Instr.Const 5); I (Instr.Const 6); I (Instr.Const 7); I (Instr.Const 8);
        I (Instr.Const 9); I (Instr.Const 10); I (Instr.Const 11); I (Instr.Const 12);
      ]
      @ List.concat (List.init 60 (fun _ -> Asm.[ I Instr.Nop; I Instr.Nop ]))
      @ Asm.[
          L "loop";
          I (Instr.Load 0); I (Instr.Const 0); I (Instr.Cmp Instr.Le); Br (true, "done");
          I (Instr.Load 0); I (Instr.Const 1); I (Instr.Binop Instr.Sub); I (Instr.Store 0);
          Jmp "loop";
          L "done";
          I (Instr.Const 0); I Instr.Ret;
        ])
  in
  let prog = Program.make [ count_to_0 ] in
  let trace = Trace.capture prog ~input:[ 5000 ] in
  Alcotest.(check bool) "thousands of events" true (Array.length trace.Trace.branches > 4000);
  Alcotest.(check bool) "branch pc needs a multi-byte varint" true
    (Array.exists (fun e -> e.Trace.pc > 127) trace.Trace.branches);
  let saved = Trace.save trace in
  let loaded = Trace.load_branches saved in
  Alcotest.(check int) "count preserved" (Array.length trace.Trace.branches) (List.length loaded);
  Alcotest.(check bool) "events identical" true (Array.to_list trace.Trace.branches = loaded);
  Alcotest.(check string) "bits identical"
    (Util.Bitstring.to_string (Trace.bitstring trace))
    (Util.Bitstring.to_string (Trace.bits_of_branches loaded))

let test_trace_load_truncated () =
  (* every proper prefix of a valid save salvages a prefix of the original
     event list and reports a diagnostic — never an exception, never a
     mis-parse past the cut *)
  let prog = Program.make [ gcd_program ] in
  let trace = Trace.capture prog ~input:[] in
  let original = Array.to_list trace.Trace.branches in
  let saved = Trace.save trace in
  Alcotest.(check bool) "fixture has events" true (String.length saved > 5);
  for len = 0 to String.length saved - 1 do
    let events, diag = Trace.salvage_branches (String.sub saved 0 len) in
    let n = List.length events in
    Alcotest.(check bool)
      (Printf.sprintf "%d-byte prefix salvages a prefix" len)
      true
      (n <= List.length original && events = List.filteri (fun i _ -> i < n) original);
    Alcotest.(check bool) (Printf.sprintf "%d-byte prefix has a diagnostic" len) true (diag <> None)
  done;
  (* the untruncated save round-trips with no diagnostic *)
  let events, diag = Trace.salvage_branches saved in
  Alcotest.(check bool) "full save salvages everything" true (events = original);
  Alcotest.(check bool) "full save is clean" true (diag = None);
  (* a varint continuation byte with no successor: cut mid-varint *)
  let events, diag = Trace.salvage_branches "TRC1\x85" in
  Alcotest.(check (list unit)) "dangling continuation yields no events" [] (List.map ignore events);
  Alcotest.(check bool) "dangling continuation is diagnosed" true (diag <> None)

let suite =
  suite
  @ [
      ("trace save/load", `Quick, test_trace_save_load);
      ("trace save/load empty", `Quick, test_trace_save_load_empty);
      ("trace save/load large", `Quick, test_trace_save_load_large);
      ("trace load salvages garbage", `Quick, test_trace_load_garbage);
      ("trace load salvages truncation", `Quick, test_trace_load_truncated);
    ]

let suite = suite @ Test_verify.suite
