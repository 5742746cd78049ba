type error = { func : string; pc : int; message : string }

let pp_error fmt { func; pc; message } = Format.fprintf fmt "%s@%d: %s" func pc message

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
  (* [min_int] marks an unreached pc; every pc enters the FIFO once. *)
  let depth = Array.make n min_int and queue = Array.make n 0 and head = ref 0 and tail = ref 0 in
  let push pc d =
    if pc < 0 || pc >= n then err f.name pc "control flows out of the function"
    else if depth.(pc) = min_int then begin
      depth.(pc) <- d;
      queue.(!tail) <- pc;
      incr tail
    end
    else if d <> depth.(pc) then err f.name pc "stack depth mismatch at merge (%d vs %d)" depth.(pc) d
  in
  push 0 0;
  while !head < !tail do
    let pc = queue.(!head) in
    incr head;
    let d = depth.(pc) in
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

let depths prog f =
  try Ok (Array.map (fun d -> if d = min_int then None else Some d) (depths_exn prog f)) with Bad e -> Error e

(* ---- definite assignment ----

   A must-reach instance of the reaching-definitions analysis: the fact at
   a pc is the set of local slots written on *every* path from the entry
   (arguments count as written).  Loading a slot outside that set means
   some path reads the local before any store — the JVM verifier rejects
   such code, and so do we.  The interpreter zero-initializes locals, so
   this is a strengthening, not a semantic change.

   Facts are bitsets of [slot_bits] slots per word, [words] words per pc,
   packed into one flat array; a pc not yet reached acts as top, so the
   (intersection) fixpoint does not depend on the order in which the
   worklist visits pcs.  [state] marks a pc unreached (0), reached (1) or
   reached and on the worklist stack (2). *)

let slot_bits = 62

type facts = { words : int; bits : int array; state : Bytes.t }

let reached facts pc = Bytes.get facts.state pc <> '\000'

let mem { words; bits; _ } pc slot = (bits.((pc * words) + (slot / slot_bits)) lsr (slot mod slot_bits)) land 1 = 1

let solve_assigned (f : Program.func) =
  let code = f.Program.code and nlocals = f.Program.nlocals in
  let n = Array.length code in
  let words = (nlocals + slot_bits - 1) / slot_bits in
  let bits = Array.make (n * words) 0 and state = Bytes.make n '\000' in
  let stack = Array.make n 0 and top = ref 0 and after = Array.make words 0 in
  let set slot = after.(slot / slot_bits) <- after.(slot / slot_bits) lor (1 lsl (slot mod slot_bits)) in
  let push pc =
    if Bytes.get state pc <> '\002' then begin
      Bytes.set state pc '\002';
      stack.(!top) <- pc;
      incr top
    end
  in
  (* Intersect [after] into the fact at [pc]; requeue it if it shrank.
     Facts are copied word by word, not with [Array.blit]: they are
     almost always one word, and the blit's call cost about a fifth of a
     marked program's verification. *)
  let flow pc =
    if pc >= 0 && pc < n then begin
      let base = pc * words in
      if Bytes.get state pc = '\000' then begin
        for k = 0 to words - 1 do
          bits.(base + k) <- after.(k)
        done;
        push pc
      end
      else
        for k = 0 to words - 1 do
          let meet = bits.(base + k) land after.(k) in
          if meet <> bits.(base + k) then begin
            bits.(base + k) <- meet;
            push pc
          end
        done
    end
  in
  for slot = 0 to min f.Program.nargs nlocals - 1 do
    set slot
  done;
  flow 0;
  while !top > 0 do
    decr top;
    let pc = stack.(!top) in
    Bytes.set state pc '\001';
    for k = 0 to words - 1 do
      after.(k) <- bits.((pc * words) + k)
    done;
    let instr = code.(pc) in
    (match instr with Instr.Store slot when slot >= 0 && slot < nlocals -> set slot | _ -> ());
    List.iter flow (Instr.targets instr);
    if Instr.falls_through instr then flow (pc + 1)
  done;
  { words; bits; state }

let assigned (f : Program.func) =
  let facts = solve_assigned f in
  Array.init (Array.length f.Program.code) (fun pc ->
      if reached facts pc then Some (Array.init f.Program.nlocals (mem facts pc)) else None)

let check_assignment (f : Program.func) =
  let facts = solve_assigned f in
  Array.iteri
    (fun pc instr ->
      match instr with
      | Instr.Load slot when reached facts pc && slot >= 0 && slot < f.Program.nlocals && not (mem facts pc slot)
        ->
          err f.name pc "local %d may be read before assignment" slot
      | _ -> ())
    f.Program.code

let check (prog : Program.t) =
  let errors = ref [] in
  (match Program.find_func prog prog.main with
  | None -> errors := { func = prog.main; pc = 0; message = "main function missing" } :: !errors
  | Some f ->
      if f.nargs <> 0 then
        errors := { func = prog.main; pc = 0; message = "main must take no arguments" } :: !errors);
  Array.iter
    (fun f ->
      try
        ignore (depths_exn prog f);
        check_assignment f
      with Bad e -> errors := e :: !errors)
    prog.funcs;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let check_exn prog =
  match check prog with
  | Ok () -> ()
  | Error es ->
      invalid_arg
        (Format.asprintf "Verify.check_exn: %a"
           (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ") pp_error)
           es)
