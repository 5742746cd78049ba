(* Tests for the MiniC front-end and both compilers, including differential
   testing: the stack-VM build and the native build must reproduce the
   reference interpreter's outputs exactly. *)

let parse = Minic.Parser.parse

(* run a source program on all three substrates and compare outputs *)
let run_all ?(input = []) src =
  let ast = parse src in
  ignore (Minic.Typecheck.check ast);
  let reference = Minic.Interp.run ast ~input in
  let vm_prog = Minic.To_stackvm.compile ast in
  let vm = Stackvm.Interp.run vm_prog ~input in
  let native = Nativesim.Machine.run (Nativesim.Asm.assemble (Minic.To_native.compile ast)) ~input in
  (reference, vm, native)

let check_outputs ?input ~expect src =
  let reference, vm, native = run_all ?input src in
  (match reference.Minic.Interp.outcome with
  | Minic.Interp.Finished _ -> ()
  | Minic.Interp.Runtime_error m -> Alcotest.failf "interp error: %s" m
  | Minic.Interp.Out_of_fuel -> Alcotest.fail "interp out of fuel");
  Alcotest.(check (list int)) "interp outputs" expect reference.Minic.Interp.outputs;
  Alcotest.(check (list int)) "vm outputs" expect vm.Stackvm.Interp.outputs;
  (match vm.Stackvm.Interp.outcome with
  | Stackvm.Interp.Finished _ -> ()
  | Stackvm.Interp.Trapped { reason; _ } -> Alcotest.failf "vm trapped: %s" reason
  | Stackvm.Interp.Out_of_fuel -> Alcotest.fail "vm out of fuel");
  Alcotest.(check (list int)) "native outputs" expect native.Nativesim.Machine.outputs;
  match native.Nativesim.Machine.outcome with
  | Nativesim.Machine.Halted -> ()
  | Nativesim.Machine.Trapped { reason; addr } -> Alcotest.failf "native trapped at 0x%x: %s" addr reason
  | Nativesim.Machine.Out_of_fuel -> Alcotest.fail "native out of fuel"

(* ---- parsing ---- *)

let test_parse_expr_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  match Minic.Parser.parse_expr "1 + 2 * 3" with
  | Minic.Ast.Bin (Minic.Ast.Add, Minic.Ast.Num 1, Minic.Ast.Bin (Minic.Ast.Mul, Minic.Ast.Num 2, Minic.Ast.Num 3)) -> ()
  | _ -> Alcotest.fail "wrong precedence"

let test_parse_left_assoc () =
  match Minic.Parser.parse_expr "10 - 4 - 3" with
  | Minic.Ast.Bin (Minic.Ast.Sub, Minic.Ast.Bin (Minic.Ast.Sub, Minic.Ast.Num 10, Minic.Ast.Num 4), Minic.Ast.Num 3) -> ()
  | _ -> Alcotest.fail "subtraction must associate left"

let test_parse_errors () =
  let bad = [ "func main( { return 0; }"; "func main() { return 0 }"; "global x;"; "func main() { 1 +; }" ] in
  List.iter
    (fun src ->
      match parse src with
      | _ -> Alcotest.failf "accepted bad program: %s" src
      | exception (Minic.Parser.Error _ | Minic.Lexer.Error _) -> ())
    bad

let test_comments () =
  check_outputs ~expect:[ 5 ]
    {| // line comment
       func main() { /* block
                        comment */ print(5); return 0; } |}

(* ---- typechecking ---- *)

let test_type_errors () =
  let bad =
    [
      "func main() { return x; }";
      "func main() { int a = new(3); return 0; }";
      "func main() { arr a = 3; return 0; }";
      "func main() { int x = 1; x[0] = 2; return 0; }";
      "func main() { break; return 0; }";
      "func f(int x) { return x; } func main() { return f(1, 2); }";
      "func main() { print(1); }";
      "func notmain() { return 0; }";
      "func main(int x) { return 0; }";
      "func main() { arr a = new(2); if (a == 1) { return 1; } return 0; }";
    ]
  in
  List.iter
    (fun src ->
      match Minic.Typecheck.check (parse src) with
      | _ -> Alcotest.failf "accepted ill-typed program: %s" src
      | exception Minic.Typecheck.Error _ -> ())
    bad

let test_return_type_inference () =
  let src =
    {| func make(int n) { return new(n); }
       func use() { arr a = make(3); return len(a); }
       func main() { return use(); } |}
  in
  let tys = Minic.Typecheck.check (parse src) in
  Alcotest.(check bool) "make returns arr" true (List.assoc "make" tys = Minic.Ast.Arr);
  Alcotest.(check bool) "use returns int" true (List.assoc "use" tys = Minic.Ast.Int)

(* ---- differential execution ---- *)

let test_arith () =
  check_outputs ~expect:[ 14; -1; 3; 2; 12; 6; 6; 48; -2 ]
    {| func main() {
         print(2 + 3 * 4);
         print(3 - 4);
         print(7 / 2);
         print(7 % 5);
         print(8 | 4);
         print(7 & 14);
         print(5 ^ 3);
         print(3 << 4);
         print(-16 >> 3);
         return 0;
       } |}

let test_comparisons_and_logic () =
  check_outputs ~expect:[ 1; 0; 1; 1; 0; 1; 0; 1 ]
    {| func main() {
         print(3 < 4);
         print(4 < 3);
         print(3 <= 3);
         print(3 == 3);
         print(3 != 3);
         print(1 && 2);
         print(0 && 1);
         print(0 || 7);
         return 0;
       } |}

let test_short_circuit () =
  (* the right side of && must not run when the left is false *)
  check_outputs ~expect:[ 0; 1 ]
    {| global int effects;
       func bump() { effects = effects + 1; return 1; }
       func main() {
         int x = 0 && bump();
         print(effects);
         int y = 1 || bump();
         print(y);
         return 0;
       } |}

let test_gcd () =
  check_outputs ~input:[ 252; 105 ] ~expect:[ 21 ]
    {| func gcd(int a, int b) {
         while (b != 0) { int t = a % b; a = b; b = t; }
         return a;
       }
       func main() { print(gcd(read(), read())); return 0; } |}

let test_recursion () =
  check_outputs ~expect:[ 6765 ]
    {| func fib(int n) {
         if (n < 2) { return n; }
         return fib(n - 1) + fib(n - 2);
       }
       func main() { print(fib(20)); return 0; } |}

let test_mutual_recursion () =
  check_outputs ~expect:[ 1; 0; 1 ]
    {| func is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
       func is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
       func main() { print(is_even(10)); print(is_even(7)); print(is_odd(3)); return 0; } |}

let test_arrays_and_sorting () =
  check_outputs ~input:[ 5; 3; 9; 1; 7; 5 ] ~expect:[ 1; 3; 5; 7; 9 ]
    {| func main() {
         int n = read();
         int a[n];
         int i = 0;
         while (i < n) { a[i] = read(); i = i + 1; }
         // insertion sort
         i = 1;
         while (i < n) {
           int key = a[i];
           int j = i - 1;
           while (j >= 0 && a[j] > key) { a[j + 1] = a[j]; j = j - 1; }
           a[j + 1] = key;
           i = i + 1;
         }
         i = 0;
         while (i < n) { print(a[i]); i = i + 1; }
         return 0;
       } |}

let test_global_arrays () =
  check_outputs ~expect:[ 10; 45 ]
    {| global int table[10];
       global int total;
       func fill() {
         int i = 0;
         while (i < len(table)) { table[i] = i; i = i + 1; }
         return 0;
       }
       func main() {
         fill();
         print(len(table));
         int i = 0;
         while (i < len(table)) { total = total + table[i]; i = i + 1; }
         print(total);
         return 0;
       } |}

let test_break_continue () =
  check_outputs ~expect:[ 0; 1; 2; 4; 5 ]
    {| func main() {
         int i = 0;
         while (1) {
           if (i == 3) { i = i + 1; continue; }
           if (i > 5) { break; }
           print(i);
           i = i + 1;
         }
         return 0;
       } |}

let test_shadowing_scopes () =
  check_outputs ~expect:[ 2; 1 ]
    {| func main() {
         int x = 1;
         if (1) { int x = 2; print(x); }
         print(x);
         return 0;
       } |}

let test_arrays_as_arguments () =
  check_outputs ~expect:[ 60 ]
    {| func sum(arr a) {
         int total = 0;
         int i = 0;
         while (i < len(a)) { total = total + a[i]; i = i + 1; }
         return total;
       }
       func main() {
         int a[3];
         a[0] = 10; a[1] = 20; a[2] = 30;
         print(sum(a));
         return 0;
       } |}

let test_array_returning_function () =
  check_outputs ~expect:[ 3; 0; 5 ]
    {| func range_to(int n) {
         int a[n];
         int i = 0;
         while (i < n) { a[i] = i * 5; i = i + 1; }
         return a;
       }
       func main() {
         arr a = range_to(3);
         print(len(a));
         print(a[0]);
         print(a[1]);
         return 0;
       } |}

let test_unary_ops () =
  check_outputs ~expect:[ -5; 1; 0; -8 ]
    {| func main() {
         print(-5);
         print(!0);
         print(!3);
         print(~7);
         return 0;
       } |}

let test_div_by_zero_consistent () =
  (* all three substrates must fail (no output beyond the first print) *)
  let src = {| func main() { print(1); print(1 / (1 - 1)); return 0; } |} in
  let reference, vm, native = run_all src in
  Alcotest.(check bool) "interp errors" true
    (match reference.Minic.Interp.outcome with Minic.Interp.Runtime_error _ -> true | _ -> false);
  Alcotest.(check bool) "vm traps" true
    (match vm.Stackvm.Interp.outcome with Stackvm.Interp.Trapped _ -> true | _ -> false);
  Alcotest.(check bool) "native traps" true
    (match native.Nativesim.Machine.outcome with Nativesim.Machine.Trapped _ -> true | _ -> false);
  Alcotest.(check (list int)) "same partial outputs" reference.Minic.Interp.outputs vm.Stackvm.Interp.outputs;
  Alcotest.(check (list int)) "native partial outputs" reference.Minic.Interp.outputs native.Nativesim.Machine.outputs

let test_out_of_bounds_consistent () =
  let src = {| func main() { int a[2]; print(7); print(a[5]); return 0; } |} in
  let reference, vm, native = run_all src in
  Alcotest.(check bool) "interp errors" true
    (match reference.Minic.Interp.outcome with Minic.Interp.Runtime_error _ -> true | _ -> false);
  Alcotest.(check bool) "vm traps" true
    (match vm.Stackvm.Interp.outcome with Stackvm.Interp.Trapped _ -> true | _ -> false);
  Alcotest.(check bool) "native traps" true
    (match native.Nativesim.Machine.outcome with Nativesim.Machine.Trapped _ -> true | _ -> false)

(* randomized differential testing on a parameterized branchy program *)
let qcheck_differential =
  QCheck.Test.make ~name:"random inputs agree across all three substrates" ~count:60
    QCheck.(pair (int_bound 60) (int_bound 97))
    (fun (a, b) ->
      let src =
        {| func collatz(int n) {
             int steps = 0;
             while (n != 1 && steps < 200) {
               if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
               steps = steps + 1;
             }
             return steps;
           }
           func main() {
             int a = read();
             int b = read();
             print(collatz(a + 2));
             print(collatz(b + 2));
             if (a < b) { print(a * b + 1); } else { print(a - b); }
             int acc = 0;
             int i = 0;
             while (i < a % 7 + 3) { acc = acc + i * i; i = i + 1; }
             print(acc);
             return 0;
           } |}
      in
      let input = [ a; b ] in
      let reference, vm, native = run_all ~input src in
      reference.Minic.Interp.outputs = vm.Stackvm.Interp.outputs
      && reference.Minic.Interp.outputs = native.Nativesim.Machine.outputs)

let suite =
  [
    ("parse precedence", `Quick, test_parse_expr_precedence);
    ("parse left associativity", `Quick, test_parse_left_assoc);
    ("parse errors", `Quick, test_parse_errors);
    ("comments", `Quick, test_comments);
    ("type errors", `Quick, test_type_errors);
    ("return type inference", `Quick, test_return_type_inference);
    ("arithmetic", `Quick, test_arith);
    ("comparisons and logic", `Quick, test_comparisons_and_logic);
    ("short circuit", `Quick, test_short_circuit);
    ("gcd", `Quick, test_gcd);
    ("recursion", `Quick, test_recursion);
    ("mutual recursion", `Quick, test_mutual_recursion);
    ("arrays and sorting", `Quick, test_arrays_and_sorting);
    ("global arrays", `Quick, test_global_arrays);
    ("break/continue", `Quick, test_break_continue);
    ("shadowing scopes", `Quick, test_shadowing_scopes);
    ("arrays as arguments", `Quick, test_arrays_as_arguments);
    ("array-returning function", `Quick, test_array_returning_function);
    ("unary ops", `Quick, test_unary_ops);
    ("division by zero consistent", `Quick, test_div_by_zero_consistent);
    ("out of bounds consistent", `Quick, test_out_of_bounds_consistent);
    QCheck_alcotest.to_alcotest qcheck_differential;
  ]

(* ---- pretty-printer roundtrip ---- *)

let roundtrip_program src =
  let ast = parse src in
  let printed = Minic.Pretty.to_string ast in
  let reparsed = Minic.Parser.parse printed in
  (ast = reparsed, printed)

let test_pretty_roundtrip_samples () =
  let samples =
    [
      {| func main() { return 0; } |};
      {| global int g; global int t[5]; global arr h;
         func f(int x, arr a) { a[x] = x * 2; return a[x]; }
         func main() { int a[3]; print(f(1, a)); return 0; } |};
      {| func main() {
           int x = 1;
           while (x < 10) { if (x % 2 == 0) { x = x + 3; } else { x = x + 1; continue; } }
           if (!x) { print(~x); } else { if (x >= 5) { print(-x); } }
           return x << 2 >> 1 & 7 | 1 ^ 3;
         } |};
      {| func main() { int y = read(); print(len(new(y)) + (1 && 0 || 1)); return 0 - 5; } |};
    ]
  in
  List.iter
    (fun src ->
      let ok, printed = roundtrip_program src in
      if not ok then Alcotest.failf "pretty/parse roundtrip failed for:\n%s" printed)
    samples

let test_pretty_roundtrip_workloads () =
  (* every shipped workload source must roundtrip *)
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let ok, _ = roundtrip_program w.Workloads.Workload.source in
      Alcotest.(check bool) (w.Workloads.Workload.name ^ " roundtrips") true ok)
    ((Workloads.Caffeine.suite :: Workloads.Caffeine.kernels)
    @ [ Workloads.Jesslite.engine ]
    @ Workloads.Spec.all)

let test_pretty_preserves_semantics () =
  (* printing and re-parsing must not change behaviour *)
  let w = Workloads.Spec.find "mcf" in
  let printed = Minic.Pretty.to_string (parse w.Workloads.Workload.source) in
  let r1 = Minic.Interp.run (parse w.Workloads.Workload.source) ~input:w.Workloads.Workload.input in
  let r2 = Minic.Interp.run (Minic.Parser.parse printed) ~input:w.Workloads.Workload.input in
  Alcotest.(check (list int)) "same outputs" r1.Minic.Interp.outputs r2.Minic.Interp.outputs

(* random expression generator for the roundtrip property *)
let rec gen_expr rng depth : Minic.Ast.expr =
  let open Minic.Ast in
  if depth = 0 then
    match Util.Prng.int rng 3 with
    | 0 -> Num (Util.Prng.int_in rng (-50) 50)
    | 1 -> Var "x"
    | _ -> Read
  else begin
    match Util.Prng.int rng 7 with
    | 0 ->
        let ops = [| Add; Sub; Mul; Div; Rem; Band; Bor; Bxor; Shl; Shr; Eq; Ne; Lt; Le; Gt; Ge; Land; Lor |] in
        Bin (Util.Prng.pick rng ops, gen_expr rng (depth - 1), gen_expr rng (depth - 1))
    | 1 -> Unary (Util.Prng.pick rng [| Neg; Not; BNot |], gen_expr rng (depth - 1))
    | 2 -> Index (Var "a", gen_expr rng (depth - 1))
    | 3 -> Call ("f", [ gen_expr rng (depth - 1) ])
    | 4 -> Len (Var "a")
    | 5 -> New (gen_expr rng (depth - 1))
    | _ -> Num (Util.Prng.int rng 100)
  end

(* the parser folds unary minus of literals, so compare normalized ASTs *)
let rec normalize (e : Minic.Ast.expr) : Minic.Ast.expr =
  match e with
  | Unary (Neg, e') -> begin
      match normalize e' with
      | Num n -> Num (-n)
      | e'' -> Unary (Neg, e'')
    end
  | Unary (op, e') -> Unary (op, normalize e')
  | Bin (op, a, b) -> Bin (op, normalize a, normalize b)
  | Index (a, i) -> Index (normalize a, normalize i)
  | Call (f, args) -> Call (f, List.map normalize args)
  | New n -> New (normalize n)
  | Len a -> Len (normalize a)
  | (Num _ | Var _ | Read) as leaf -> leaf

let qcheck_pretty_expr_roundtrip =
  QCheck.Test.make ~name:"random expression pretty/parse roundtrip" ~count:300 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Prng.create (Int64.of_int (seed + 1)) in
      let e = gen_expr rng 4 in
      let printed = Minic.Pretty.expr_to_string e in
      match Minic.Parser.parse_expr printed with
      | reparsed -> reparsed = normalize e
      | exception _ -> false)

let pretty_suite =
  [
    ("pretty roundtrip samples", `Quick, test_pretty_roundtrip_samples);
    ("pretty roundtrip workloads", `Quick, test_pretty_roundtrip_workloads);
    ("pretty preserves semantics", `Quick, test_pretty_preserves_semantics);
    QCheck_alcotest.to_alcotest qcheck_pretty_expr_roundtrip;
  ]

(* ---- native labels are numbered per program ---- *)

(* a program's native bytes, labels and symbols included, must not depend
   on what the process compiled before it *)
let test_native_bytes_independent_of_history () =
  let bytes (w : Workloads.Workload.t) =
    Nativesim.Binary.encode (Nativesim.Asm.assemble (Minic.To_native.compile_source w.Workloads.Workload.source))
  in
  let sieve = List.hd Workloads.Caffeine.kernels and other = Workloads.Spec.find "gzip" in
  Alcotest.(check string) "fixture" "caffeine-sieve" sieve.Workloads.Workload.name;
  let first = bytes sieve in
  ignore (bytes other);
  Alcotest.(check string) "caffeine-sieve compiles to the same bytes again" first (bytes sieve)

let suite =
  suite @ pretty_suite
  @ [ ("native labels numbered per program", `Quick, test_native_bytes_independent_of_history) ]
