(* The verifier's stack-depth and definite-assignment passes and the
   rewriter's one-pass multi-insert, each held to the straightforward
   implementation it replaced: the verifier before its flat-array solvers,
   and a fold of single-snippet insertions.  Both references live only
   here. *)

open Stackvm

module Reference = struct
  (* The verifier as it was: a FIFO [Queue] of [int option] depths, and
     definite assignment through [Dataflow.Make] over [bool array] facts. *)
  type error = Verify.error = { func : string; pc : int; message : string }

  exception Bad of error

  let err func pc fmt = Format.kasprintf (fun message -> raise (Bad { func; pc; message })) fmt

  (* Net stack effect of one instruction, given callee arities. *)
  let delta (prog : Program.t) fname pc instr =
    match (instr : Instr.t) with
    | Call callee -> begin
        match Program.find_func prog callee with
        | None -> err fname pc "call to unknown function %s" callee
        | Some f -> 1 - f.Program.nargs
      end
    | Ret -> err fname pc "Ret has no static delta" (* handled separately *)
    | other -> begin
        match Instr.stack_delta other with
        | Some d -> d
        | None -> assert false
      end

  (* Operands an instruction needs on the stack before executing. *)
  let required (prog : Program.t) fname pc instr =
    match (instr : Instr.t) with
    | Instr.Const _ | Instr.Load _ | Instr.Get_global _ | Instr.Read | Instr.Jump _ | Instr.Nop -> 0
    | Instr.Store _ | Instr.Set_global _ | Instr.Neg | Instr.Not | Instr.Dup | Instr.Pop
    | Instr.New_array | Instr.Array_len | Instr.Print | Instr.If _ | Instr.Ret ->
        1
    | Instr.Binop _ | Instr.Cmp _ | Instr.Swap | Instr.Array_load -> 2
    | Instr.Array_store -> 3
    | Instr.Call callee -> begin
        match Program.find_func prog callee with
        | None -> err fname pc "call to unknown function %s" callee
        | Some f -> f.Program.nargs
      end

  let check_static (prog : Program.t) (f : Program.func) =
    let n = Array.length f.code in
    Array.iteri
      (fun pc instr ->
        (match (instr : Instr.t) with
        | Instr.Load slot | Instr.Store slot ->
            if slot < 0 || slot >= f.nlocals then err f.name pc "local slot %d out of %d" slot f.nlocals
        | Instr.Get_global g | Instr.Set_global g ->
            if g < 0 || g >= prog.nglobals then err f.name pc "global %d out of %d" g prog.nglobals
        | Instr.Call callee ->
            if Program.find_func prog callee = None then err f.name pc "call to unknown function %s" callee
        | _ -> ());
        List.iter
          (fun t -> if t < 0 || t >= n then err f.name pc "branch target %d out of [0, %d)" t n)
          (Instr.targets instr))
      f.code;
    if n = 0 then err f.name 0 "empty function body";
    (* The last instruction must not fall off the end. *)
    if Instr.falls_through f.code.(n - 1) then err f.name (n - 1) "control can fall off the end"

  let depths_exn (prog : Program.t) (f : Program.func) =
    check_static prog f;
    let n = Array.length f.code in
    let depth = Array.make n None in
    let worklist = Queue.create () in
    let push pc d =
      if pc < 0 || pc >= n then err f.name pc "control flows out of the function"
      else begin
        match depth.(pc) with
        | None ->
            depth.(pc) <- Some d;
            Queue.add pc worklist
        | Some d' -> if d <> d' then err f.name pc "stack depth mismatch at merge (%d vs %d)" d' d
      end
    in
    push 0 0;
    while not (Queue.is_empty worklist) do
      let pc = Queue.pop worklist in
      let d = Option.get depth.(pc) in
      let instr = f.code.(pc) in
      let need = required prog f.name pc instr in
      if d < need then err f.name pc "stack underflow: depth %d, need %d" d need;
      match instr with
      | Instr.Ret -> if d <> 1 then err f.name pc "Ret requires depth exactly 1, found %d" d
      | Instr.Jump t -> push t d
      | Instr.If { target; _ } ->
          push target (d - 1);
          push (pc + 1) (d - 1)
      | other ->
          let d' = d + delta prog f.name pc other in
          push (pc + 1) d'
    done;
    depth

  let depths prog f = try Ok (depths_exn prog f) with Bad e -> Error e

  (* ---- definite assignment ----

     A must-reach instance of the reaching-definitions analysis, run with
     the generic worklist solver: the fact at a pc is the set of local slots
     written on *every* path from the entry (arguments count as written).
     Loading a slot outside that set means some path reads the local before
     any store — the JVM verifier rejects such code, and so do we.  The
     interpreter zero-initializes locals, so this is a strengthening, not a
     semantic change. *)

  module Assigned = Dataflow.Make (struct
    type t = bool array

    let equal = ( = )

    let join a b = Array.init (Array.length a) (fun i -> a.(i) && b.(i))
  end)

  let assigned (f : Program.func) =
    let n = Array.length f.code in
    let entry = Array.init f.nlocals (fun slot -> slot < f.nargs) in
    let transfer pc fact =
      let after =
        match f.code.(pc) with
        | Instr.Store slot when slot < f.nlocals ->
            let a = Array.copy fact in
            a.(slot) <- true;
            a
        | _ -> fact
      in
      let succs =
        match f.code.(pc) with
        | Instr.Ret -> []
        | instr ->
            let targets = Instr.targets instr in
            if Instr.falls_through instr then (pc + 1) :: targets else targets
      in
      List.filter_map (fun t -> if t >= 0 && t < n then Some (t, after) else None) succs
    in
    let facts = Assigned.solve ~seeds:[ (0, entry) ] ~transfer () in
    Array.init n (fun pc -> Assigned.fact facts pc)

  let check_assignment (f : Program.func) =
    Array.iteri
      (fun pc fact ->
        match (f.code.(pc), fact) with
        | Instr.Load slot, Some a when slot < Array.length a && not a.(slot) ->
            err f.name pc "local %d may be read before assignment" slot
        | _ -> ())
      (assigned f)

  let assignment prog f =
    ignore (prog : Program.t);
    try
      check_assignment f;
      Ok ()
    with Bad e -> Error e

  let check (prog : Program.t) =
    let errors = ref [] in
    (match Program.find_func prog prog.main with
    | None -> errors := { func = prog.main; pc = 0; message = "main function missing" } :: !errors
    | Some f ->
        if f.nargs <> 0 then
          errors := { func = prog.main; pc = 0; message = "main must take no arguments" } :: !errors);
    Array.iter
      (fun f ->
        match depths prog f with
        | Error e -> errors := e :: !errors
        | Ok _ -> (
            match assignment prog f with Ok () -> () | Error e -> errors := e :: !errors))
      prog.funcs;
    match !errors with [] -> Ok () | es -> Error (List.rev es)

  let insert (f : Program.func) ~at code =
    let n = Array.length f.Program.code in
    if at < 0 || at > n then invalid_arg "Rewrite.insert: bad position";
    let snippet = Array.of_list code in
    let len = Array.length snippet in
    let shifted = Array.map (fun i -> Instr.relocate i ~f:(fun t -> if t > at then t + len else t)) f.Program.code in
    let rebased = Array.map (fun i -> Instr.relocate i ~f:(fun t -> t + at)) snippet in
    let out = Array.make (n + len) Instr.Nop in
    Array.blit shifted 0 out 0 at;
    Array.blit rebased 0 out at len;
    Array.blit shifted at out (at + len) (n - at);
    { f with Program.code = out }

  let insert_many f inserts =
    let sorted = List.stable_sort (fun (a, _) (b, _) -> Stdlib.compare b a) inserts in
    List.fold_left (fun f (at, code) -> insert f ~at code) f sorted
end

let show_result = function
  | Ok () -> "ok"
  | Error es -> String.concat "; " (List.map (Format.asprintf "%a" Verify.pp_error) es)

let show_assigned table =
  String.concat " "
    (Array.to_list
       (Array.mapi
          (fun pc -> function
            | None -> Printf.sprintf "%d:-" pc
            | Some a ->
                Printf.sprintf "%d:{%s}" pc
                  (String.concat "," (List.filter_map Fun.id (List.mapi (fun s b -> if b then Some (string_of_int s) else None) (Array.to_list a)))))
          table))

(* The reference's [Store] writes a negative slot into an OCaml array and
   raises, and it seeds pc 0 of an empty body; the dense solver treats a
   negative slot like one past [nlocals] (no slot is written) and answers
   [[||]] for an empty body. *)
let reference_assigned (f : Program.func) =
  if Array.length f.code = 0 then [||]
  else
    Reference.assigned
      { f with code = Array.map (function Instr.Store s when s < 0 -> Instr.Nop | i -> i) f.code }

let agrees ~what prog =
  Array.iter
    (fun (f : Program.func) ->
      let expected = reference_assigned f and got = Verify.assigned f in
      if expected <> got then
        Alcotest.failf "%s/%s: assigned differs\nreference: %s\ndense:     %s" what f.name (show_assigned expected)
          (show_assigned got);
      if Reference.depths prog f <> Verify.depths prog f then Alcotest.failf "%s/%s: depths differ" what f.name)
    prog.Program.funcs;
  let expected = Reference.check prog and got = Verify.check prog in
  if expected <> got then
    Alcotest.failf "%s: check differs\nreference: %s\ndense:     %s" what (show_result expected) (show_result got)

(* ---- every function of the corpus, marked and attacked ---- *)

let corpus_programs () =
  let mark = Bignum.of_string "987654321987654321" in
  List.concat_map
    (fun (wl : Workloads.Workload.t) ->
      let host = Workloads.Workload.vm_program wl and input = wl.input in
      let jwm ?stealth bits pieces =
        let spec = { Jwm.Embed.passphrase = Vm_corpus.key; watermark = mark; watermark_bits = bits; pieces; input } in
        (Jwm.Embed.embed ?stealth ~seed:11L spec host).Jwm.Embed.program
      in
      let gwm =
        let spec = { Gwm.Embed.passphrase = Vm_corpus.key; watermark = mark; watermark_bits = 64; copies = 8; input } in
        (Gwm.Embed.embed ~seed:7L spec host).Gwm.Embed.program
      in
      let marked =
        [
          ("unmarked", host);
          ("jwm-64", jwm 64 20);
          ("jwm-64-stealth", jwm ~stealth:true 64 20);
          ("jwm-256", jwm 256 60);
          ("gwm-64", gwm);
        ]
      in
      List.map (fun (variant, p) -> (wl.name ^ "/" ^ variant, p)) marked
      @ List.concat_map
          (fun (variant, p) ->
            List.map
              (fun (attack, run) -> (Printf.sprintf "%s/%s/%s" wl.name variant attack, run (Util.Prng.create 5L) p))
              Vmattacks.Attacks.all)
          [ ("unmarked", host); ("jwm-64", List.assoc "jwm-64" marked) ])
    Vm_corpus.workloads

(* No corpus function has more than 62 locals; the random functions below
   cover the multi-word bitsets. *)
let test_corpus_matches_reference () =
  List.iter (fun (what, prog) -> agrees ~what prog) (corpus_programs ())

(* ---- random programs ---- *)

(* Stack-neutral statements, so most random functions pass the depth pass
   and reach the assignment check; branch targets are statement indices,
   resolved to pcs after layout (a few land out of range or mid-statement). *)
type stmt =
  | Set of int  (** Const; Store *)
  | Use of int  (** Load; Pop *)
  | Copy of int * int  (** Load; Store *)
  | Skip  (** Nop *)
  | Branch of bool * int  (** Const; If *)
  | Goto of int  (** Jump *)
  | Return  (** Const; Ret *)
  | Raw of int  (** a Jump to this raw pc, in range or not *)

type case = { nlocals : int; nargs : int; body : stmt list }

let widths = [| 0; 1; 3; 61; 62; 63; 124; 200 |]

let gen_case =
  let open QCheck.Gen in
  let* nlocals = oneof [ oneofa widths; int_bound 8 ] in
  let* nargs = int_bound (min nlocals 3) in
  (* a few slots reused throughout, straddling word boundaries when the
     function is wide enough; occasionally one out of range *)
  let* palette =
    list_repeat 4
      (frequency
         [
           (8, if nlocals = 0 then return (-1) else int_bound (nlocals - 1));
           (2, oneofl (List.filter (fun s -> s < nlocals) [ 0; 61; 62; 123; 124; 199 ] @ [ -1 ]));
           (1, oneofl [ -2; -1; nlocals; nlocals + 1 ]);
         ])
  in
  let slot = oneofl palette in
  let* len = int_bound 14 in
  let stmt =
    frequency
      [
        (4, map (fun s -> Set s) slot);
        (4, map (fun s -> Use s) slot);
        (2, map2 (fun a b -> Copy (a, b)) slot slot);
        (1, return Skip);
        (3, map2 (fun sense t -> Branch (sense, t)) bool (int_bound (len + 1)));
        (1, map (fun t -> Goto t) (int_bound (len + 1)));
        (1, return Return);
        (1, map (fun t -> Raw t) (int_range (-2) ((2 * len) + 4)));
      ]
  in
  let* body = list_repeat len stmt in
  return { nlocals; nargs; body }

let func_of_case { nlocals; nargs; body } =
  let stmts = Array.of_list body in
  let size = function Skip | Goto _ | Raw _ -> 1 | _ -> 2 in
  let start = Array.make (Array.length stmts + 1) 0 in
  Array.iteri (fun i s -> start.(i + 1) <- start.(i) + size s) stmts;
  let target i = start.(min i (Array.length stmts)) in
  let code =
    List.concat_map
      (function
        | Set s -> [ Instr.Const 1; Instr.Store s ]
        | Use s -> [ Instr.Load s; Instr.Pop ]
        | Copy (a, b) -> [ Instr.Load a; Instr.Store b ]
        | Skip -> [ Instr.Nop ]
        | Branch (sense, t) -> [ Instr.Const 0; Instr.If { sense; target = target t } ]
        | Goto t -> [ Instr.Jump (target t) ]
        | Return -> [ Instr.Const 0; Instr.Ret ]
        | Raw pc -> [ Instr.Jump pc ])
      body
  in
  (* most bodies end in a return; some fall off the end, some are empty *)
  let code = if body <> [] && List.length body mod 5 <> 0 then code @ [ Instr.Const 0; Instr.Ret ] else code in
  Program.func ~name:"f" ~nargs ~nlocals code

let print_case c =
  let f = func_of_case c in
  Format.asprintf "nlocals=%d nargs=%d@.%a" c.nlocals c.nargs Program.pp (Program.make ~main:"f" [ f ])

let qcheck_random_matches_reference =
  QCheck.Test.make ~name:"verifier matches the reference on random functions" ~count:2000
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let f = func_of_case c in
      let main = Program.func ~name:"main" ~nargs:0 ~nlocals:0 [ Instr.Const 0; Instr.Ret ] in
      let prog = Program.make [ main; f ] in
      let expected = reference_assigned f and got = Verify.assigned f in
      let expected_check = Reference.check prog and got_check = Verify.check prog in
      (expected = got
      || QCheck.Test.fail_reportf "assigned\nreference: %s\ndense:     %s" (show_assigned expected)
           (show_assigned got))
      && (Reference.depths prog f = Verify.depths prog f || QCheck.Test.fail_report "depths differ")
      && (expected_check = got_check
         || QCheck.Test.fail_reportf "check\nreference: %s\ndense:     %s" (show_result expected_check)
              (show_result got_check)))

(* the generator reaches the cases it is for: a read-before-assign error
   reported by the assignment pass at every width, unreachable code, and
   the empty body *)
let test_random_cases_cover () =
  let cases = QCheck.Gen.generate ~rand:(Random.State.make [| 42 |]) ~n:3000 gen_case in
  let assignment_error c =
    match Verify.check (Program.make ~main:"f" [ func_of_case { c with nargs = 0 } ]) with
    | Error [ { message; _ } ] -> String.ends_with ~suffix:"read before assignment" message
    | _ -> false
  in
  Array.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "read-before-assign at nlocals %d" w)
        true
        (w = 0 || List.exists (fun c -> c.nlocals = w && assignment_error c) cases))
    widths;
  Alcotest.(check bool) "unreachable code" true
    (List.exists (fun c -> Array.exists Option.is_none (Verify.assigned (func_of_case c))) cases);
  Alcotest.(check bool) "empty bodies" true (List.exists (fun c -> c.body = []) cases);
  Alcotest.(check bool) "negative slots" true
    (List.exists
       (fun c -> List.exists (function Set s | Use s -> s < 0 | _ -> false) c.body)
       cases)

(* ---- one-pass insertion ---- *)

let gen_insert_case =
  let open QCheck.Gen in
  let* n = int_bound 12 in
  let instr =
    frequency
      [
        (3, map (fun c -> Instr.Const c) (int_bound 9));
        (2, return Instr.Nop);
        (1, return Instr.Pop);
        (2, map (fun t -> Instr.Jump t) (int_range (-2) (n + 4)));
        (2, map2 (fun sense t -> Instr.If { sense; target = t }) bool (int_range (-2) (n + 4)));
      ]
  in
  let* code = list_repeat n instr in
  let position = frequency [ (2, return 0); (2, return n); (3, int_bound n) ] in
  let* positions = list_size (int_bound 3) position in
  let at = if positions = [] then position else frequency [ (2, oneofl positions); (1, position) ] in
  let snippet =
    let* len = int_bound 4 in
    let target = frequency [ (2, return 0); (2, return len); (2, int_range (-2) (len + 3)) ] in
    list_repeat len
      (frequency
         [
           (3, return Instr.Nop);
           (2, map (fun t -> Instr.Jump t) target);
           (2, map2 (fun sense t -> Instr.If { sense; target = t }) bool target);
         ])
  in
  let* inserts = list_size (int_bound 6) (pair at snippet) in
  return (Program.func ~name:"f" ~nargs:0 ~nlocals:2 code, inserts)

let print_insert_case ((f : Program.func), inserts) =
  let show code = String.concat "; " (List.map Instr.to_string code) in
  Printf.sprintf "code: %s\ninserts: %s" (show (Array.to_list f.code))
    (String.concat " | " (List.map (fun (at, c) -> Printf.sprintf "@%d [%s]" at (show c)) inserts))

let qcheck_insert_many_is_a_fold =
  QCheck.Test.make ~name:"insert_many equals folding single insertions" ~count:2000
    (QCheck.make ~print:print_insert_case gen_insert_case)
    (fun (f, inserts) ->
      let expected = Reference.insert_many f inserts in
      let got = Rewrite.insert_many f inserts in
      let single = List.for_all (fun (at, c) -> Rewrite.insert f ~at c = Reference.insert f ~at c) inserts in
      (expected = got
      || QCheck.Test.fail_reportf "reference: %s\none pass:  %s"
           (print_insert_case (expected, []))
           (print_insert_case (got, [])))
      && (single || QCheck.Test.fail_report "a single insertion differs from the reference"))

let test_insert_many_bad_position () =
  let f = Program.func ~name:"f" ~nargs:0 ~nlocals:0 [ Instr.Const 0; Instr.Ret ] in
  List.iter
    (fun at ->
      Alcotest.check_raises (Printf.sprintf "at %d" at) (Invalid_argument "Rewrite.insert: bad position")
        (fun () -> ignore (Rewrite.insert_many f [ (0, [ Instr.Nop ]); (at, [ Instr.Nop ]) ])))
    [ -1; 3 ]

let suite =
  [
    ("verifier matches the reference on the corpus", `Quick, test_corpus_matches_reference);
    QCheck_alcotest.to_alcotest qcheck_random_matches_reference;
    ("random verifier cases cover their targets", `Quick, test_random_cases_cover);
    QCheck_alcotest.to_alcotest qcheck_insert_many_is_a_fold;
    ("insert_many rejects a bad position", `Quick, test_insert_many_bad_position);
  ]
