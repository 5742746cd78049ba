open Stackvm

type t = Util.Prng.t -> Program.t -> Program.t

let map_funcs prog ~f =
  { prog with Program.funcs = Array.mapi (fun i fn -> f i fn) prog.Program.funcs }

(* ---- simple insertions ---- *)

let nop_insertion ~rate rng prog =
  map_funcs prog ~f:(fun _ f ->
      let n = Array.length f.Program.code in
      let count = int_of_float (rate *. float_of_int n) in
      let inserts = List.init count (fun _ -> (Util.Prng.int rng n, [ Instr.Nop ])) in
      Rewrite.insert_many f inserts)

let branch_insertion ~rate rng prog =
  map_funcs prog ~f:(fun _ f ->
      let n = Array.length f.Program.code in
      let branches = Array.fold_left (fun acc i -> if Instr.is_branch i then acc + 1 else acc) 0 f.Program.code in
      let count = int_of_float (rate *. float_of_int (max 1 branches)) in
      let assigned = Verify.assigned f in
      let snippet at =
        (* Only load a slot the verifier proves written on every path to
           the insertion point; with none available, branch on a constant
           pushed in place (still a fresh dynamic branch). *)
        let candidates =
          match assigned.(at) with
          | None -> []
          | Some a ->
              Array.to_list a
              |> List.mapi (fun slot ok -> if ok then Some slot else None)
              |> List.filter_map Fun.id
        in
        let operand =
          match candidates with
          | [] -> Instr.Const (Util.Prng.int_in rng (-8) 8)
          | slots -> Instr.Load (List.nth slots (Util.Prng.int rng (List.length slots)))
        in
        let threshold = Util.Prng.int_in rng (-8) 8 in
        let cmp =
          Util.Prng.pick rng [| Instr.Lt; Instr.Le; Instr.Gt; Instr.Ge; Instr.Eq; Instr.Ne |]
        in
        (* if (local <cmp> c) then {} — direction depends on live data. *)
        [
          operand;
          Instr.Const threshold;
          Instr.Cmp cmp;
          Instr.If { sense = true; target = 5 };
          Instr.Nop;
        ]
      in
      let inserts = List.init count (fun _ -> let at = Util.Prng.int rng n in (at, snippet at)) in
      let f = Rewrite.insert_many f inserts in
      Rewrite.with_locals f (max f.Program.nlocals 1))

let block_splitting ~count rng prog =
  map_funcs prog ~f:(fun _ f ->
      let n = Array.length f.Program.code in
      let inserts = List.init count (fun _ -> (Util.Prng.int_in rng 1 (max 1 (n - 1)), [ Instr.Jump 1 ])) in
      Rewrite.insert_many f inserts)

let dead_code_insertion ~count rng prog =
  map_funcs prog ~f:(fun _ f ->
      let slot, f = Rewrite.fresh_local f in
      let n = Array.length f.Program.code in
      let snippet () =
        [ Instr.Const (Util.Prng.int_in rng (-1000) 1000); Instr.Store slot ]
      in
      let inserts = List.init count (fun _ -> (Util.Prng.int rng n, snippet ())) in
      Rewrite.insert_many f inserts)

(* ---- layout transformations ---- *)

let block_reorder rng prog =
  map_funcs prog ~f:(fun _ f ->
      let nb = List.length (Rewrite.blocks f) in
      if nb <= 2 then f
      else begin
        let rest = Array.init (nb - 1) (fun i -> i + 1) in
        Util.Prng.shuffle rng rest;
        Rewrite.reorder_blocks f ~order:(0 :: Array.to_list rest)
      end)

let branch_sense_invert ~fraction rng prog =
  map_funcs prog ~f:(fun _ f ->
      Rewrite.expand f ~f:(fun pc instr ->
          match instr with
          | Instr.If { sense; target } when Util.Prng.float rng 1.0 < fraction ->
              (* swap taken and fall-through: the inverted branch skips the
                 compensating jump *)
              Some [ Instr.If { sense = not sense; target = pc + 1 }; Instr.Jump target ]
          | _ -> None))

let goto_chaining ~fraction rng prog =
  map_funcs prog ~f:(fun _ f ->
      let n = Array.length f.Program.code in
      let trampolines = ref [] in
      let next = ref n in
      let code =
        Array.map
          (fun instr ->
            match instr with
            | (Instr.Jump target | Instr.If { target; _ }) when Util.Prng.float rng 1.0 < fraction ->
                let tramp = !next in
                incr next;
                trampolines := Instr.Jump target :: !trampolines;
                Instr.relocate instr ~f:(fun _ -> tramp)
            | other -> other)
          f.Program.code
      in
      Rewrite.append_raw { f with Program.code } (List.rev !trampolines))

let instruction_reorder _rng prog =
  map_funcs prog ~f:(fun _ f ->
      let starts = Program.block_starts f in
      let code = Array.copy f.Program.code in
      let n = Array.length code in
      let is_push = function Instr.Const _ | Instr.Load _ | Instr.Get_global _ -> true | _ -> false in
      let commutative = function
        | Instr.Binop (Instr.Add | Instr.Mul | Instr.And | Instr.Or | Instr.Xor) -> true
        | _ -> false
      in
      let pc = ref 0 in
      while !pc + 2 < n do
        if
          is_push code.(!pc)
          && is_push code.(!pc + 1)
          && commutative code.(!pc + 2)
          && (not starts.(!pc + 1))
          && not starts.(!pc + 2)
        then begin
          let tmp = code.(!pc) in
          code.(!pc) <- code.(!pc + 1);
          code.(!pc + 1) <- tmp;
          pc := !pc + 3
        end
        else incr pc
      done;
      { f with Program.code })

let local_permute rng prog =
  map_funcs prog ~f:(fun _ f ->
      let lo = f.Program.nargs and hi = f.Program.nlocals in
      if hi - lo <= 1 then f
      else begin
        let perm = Array.init (hi - lo) (fun i -> lo + i) in
        Util.Prng.shuffle rng perm;
        let map slot = if slot < lo then slot else perm.(slot - lo) in
        let code =
          Array.map
            (function
              | Instr.Load s -> Instr.Load (map s)
              | Instr.Store s -> Instr.Store (map s)
              | other -> other)
            f.Program.code
        in
        { f with Program.code }
      end)

let constant_split ~fraction rng prog =
  map_funcs prog ~f:(fun _ f ->
      Rewrite.expand f ~f:(fun _ instr ->
          match instr with
          | Instr.Const c when Util.Prng.float rng 1.0 < fraction ->
              let a = Util.Prng.int_in rng (-1000) 1000 in
              (* two's-complement wrap-around keeps a + (c - a) = c *)
              Some [ Instr.Const a; Instr.Const (c - a); Instr.Binop Instr.Add ]
          | _ -> None))

let block_duplicate ~count rng prog =
  map_funcs prog ~f:(fun _ f ->
      let f = ref f in
      for _ = 1 to count do
        let blocks = Array.of_list (Rewrite.blocks !f) in
        if Array.length blocks > 1 then begin
          let leader, len = blocks.(1 + Util.Prng.int rng (Array.length blocks - 1)) in
          let code = !f.Program.code in
          let n = Array.length code in
          (* a predecessor branch that targets the block leader *)
          let preds = ref [] in
          Array.iteri
            (fun pc i -> if List.mem leader (Instr.targets i) then preds := pc :: !preds)
            code;
          match !preds with
          | [] -> ()
          | preds ->
              let copy = Array.to_list (Array.sub code leader len) in
              let copy =
                if Instr.falls_through code.(leader + len - 1) then copy @ [ Instr.Jump (leader + len) ]
                else copy
              in
              let chosen = List.nth preds (Util.Prng.int rng (List.length preds)) in
              let with_copy = Rewrite.append_raw !f copy in
              let code' = Array.copy with_copy.Program.code in
              code'.(chosen) <-
                Instr.relocate code'.(chosen) ~f:(fun t -> if t = leader then n else t);
              f := { with_copy with Program.code = code' }
        end
      done;
      !f)

(* ---- interprocedural transformations ---- *)

let method_proxy _rng prog =
  let impl_name name = name ^ "$impl" in
  let impls =
    Array.to_list
      (Array.map (fun (f : Program.func) -> { f with Program.name = impl_name f.Program.name }) prog.Program.funcs)
  in
  let stubs =
    Array.to_list
      (Array.map
         (fun (f : Program.func) ->
           let loads = List.init f.Program.nargs (fun i -> Instr.Load i) in
           {
             f with
             Program.code = Array.of_list (loads @ [ Instr.Call (impl_name f.Program.name); Instr.Ret ]);
             nlocals = max f.Program.nargs f.Program.nlocals;
           })
         prog.Program.funcs)
  in
  (* impl bodies call the original names, which are now the stubs — that
     keeps the call graph correct without rewriting call sites. *)
  { prog with Program.funcs = Array.of_list (stubs @ impls) }

let inline_calls _rng prog =
  let inlinable (callee : Program.func) =
    Array.length callee.Program.code <= 40
    && Array.for_all (function Instr.Call _ | Instr.Read -> false | _ -> true) callee.Program.code
  in
  map_funcs prog ~f:(fun _ caller ->
      let base = ref caller.Program.nlocals in
      let grown = ref caller.Program.nlocals in
      let f' =
        Rewrite.expand caller ~f:(fun pc instr ->
            match instr with
            | Instr.Call callee_name -> begin
                match Program.find_func prog callee_name with
                | Some callee
                  when inlinable callee
                       && Array.for_all (fun i -> Instr.targets i = []) callee.Program.code ->
                    (* Targets in expansion lists live in the caller's old
                       coordinate space, so only straight-line callees are
                       inlined.  The first popped argument is the last one
                       pushed; Ret becomes a jump past the call site (its
                       result is already on the stack). *)
                    let b = !base in
                    grown := max !grown (b + callee.Program.nlocals);
                    let prologue =
                      List.init callee.Program.nargs (fun k ->
                          Instr.Store (b + (callee.Program.nargs - 1 - k)))
                    in
                    let body =
                      Array.to_list
                        (Array.map
                           (function
                             | Instr.Load s -> Instr.Load (b + s)
                             | Instr.Store s -> Instr.Store (b + s)
                             | Instr.Ret -> Instr.Jump (pc + 1)
                             | other -> other)
                           callee.Program.code)
                    in
                    Some (prologue @ body)
                | _ -> None
              end
            | _ -> None)
      in
      Rewrite.with_locals f' !grown)

(* ---- registry ---- *)

let all =
  [
    ("nop-insertion", nop_insertion ~rate:0.3);
    ("branch-insertion", branch_insertion ~rate:0.5);
    ("block-reorder", block_reorder);
    ("branch-sense-inversion", branch_sense_invert ~fraction:0.5);
    ("goto-chaining", goto_chaining ~fraction:0.5);
    ("block-splitting", block_splitting ~count:5);
    ("instruction-reorder", instruction_reorder);
    ("local-permute", local_permute);
    ("constant-split", constant_split ~fraction:0.5);
    ("dead-code-insertion", dead_code_insertion ~count:5);
    ("block-duplicate", block_duplicate ~count:3);
    ("method-proxy", method_proxy);
    ("targeted-strip", Targeted_strip.attack);
    ("inline-calls", inline_calls);
    ("rpg-strip", Gattacks.Rpg_strip.attack);
  ]

(* ---- program encryption (the class-encryption analog) ---- *)

type package = { ciphertext : string; key : int64 }

let xor_stream ~key data =
  let rng = Util.Prng.create key in
  String.map (fun c -> Char.chr (Char.code c lxor Util.Prng.bits rng 8)) data

let encrypt_package ~key prog = { ciphertext = xor_stream ~key (Serialize.encode prog); key }

let package_bytes p = p.ciphertext

let static_instrument _ = None

let decrypt p = Serialize.decode (xor_stream ~key:p.key p.ciphertext)

let run_package p ~input = Compile.run_program (decrypt p) ~input

let vm_trace_package p ~input = Trace.capture (decrypt p) ~input
