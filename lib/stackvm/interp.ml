type observer = {
  on_block : fidx:int -> pc:int -> locals:int array -> globals:int array -> unit;
  on_branch : fidx:int -> pc:int -> taken:bool -> unit;
}

let null_observer = { on_block = (fun ~fidx:_ ~pc:_ ~locals:_ ~globals:_ -> ()); on_branch = (fun ~fidx:_ ~pc:_ ~taken:_ -> ()) }

type outcome = Finished of int | Trapped of { fidx : int; pc : int; reason : string } | Out_of_fuel

type result = { outcome : outcome; outputs : int list; steps : int }

type frame = { fidx : int; mutable pc : int; locals : int array; mutable stack : int list }

exception Trap of string

let checked_shift_left a b =
  let s = b land 0x3F in
  if s >= 63 then 0 else a lsl s

let checked_shift_right a b =
  let s = b land 0x3F in
  if s >= 63 then if a < 0 then -1 else 0 else a asr s

let eval_binop op a b =
  match (op : Instr.binop) with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then raise (Trap "division by zero") else a / b
  | Rem -> if b = 0 then raise (Trap "remainder by zero") else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> checked_shift_left a b
  | Shr -> checked_shift_right a b

let eval_cmp c a b =
  let holds =
    match (c : Instr.cmp) with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
  in
  if holds then 1 else 0

let run ?(observer = null_observer) ?(fuel = max_int) (prog : Program.t) ~input =
  let resolved = Resolve.of_program prog in
  let fidx_of = resolved.Resolve.fidx_of in
  let starts = resolved.Resolve.starts in
  let globals = Array.make prog.nglobals 0 in
  let heap = ref [||] in
  let heap_len = ref 0 in
  let alloc len =
    if len < 0 then raise (Trap "negative array length");
    if !heap_len >= Array.length !heap then begin
      let grown = Array.make (max 8 (2 * Array.length !heap)) [||] in
      Array.blit !heap 0 grown 0 !heap_len;
      heap := grown
    end;
    !heap.(!heap_len) <- Array.make len 0;
    incr heap_len;
    !heap_len - 1
  in
  let deref h =
    if h < 0 || h >= !heap_len then raise (Trap "bad array handle");
    !heap.(h)
  in
  let inputs = Array.of_list input in
  let input_pos = ref 0 in
  let outputs = ref [] in
  let steps = ref 0 in
  let main_idx =
    match resolved.Resolve.main_idx with
    | Some i -> i
    | None -> invalid_arg "Interp.run: main function missing"
  in
  let new_frame fidx args =
    let f = prog.funcs.(fidx) in
    let locals = Array.make f.Program.nlocals 0 in
    List.iteri (fun i v -> locals.(i) <- v) args;
    { fidx; pc = 0; locals; stack = [] }
  in
  let call_stack = ref [ new_frame main_idx [] ] in
  let finished = ref None in
  observer.on_block ~fidx:main_idx ~pc:0 ~locals:(List.hd !call_stack).locals ~globals;
  (try
     while !finished = None do
       match !call_stack with
       | [] -> assert false
       | frame :: rest ->
           let f = prog.funcs.(frame.fidx) in
           if !steps >= fuel then raise Exit;
           incr steps;
           if frame.pc < 0 || frame.pc >= Array.length f.Program.code then raise (Trap "pc out of range");
           let pop () =
             match frame.stack with
             | [] -> raise (Trap "operand stack underflow")
             | v :: tl ->
                 frame.stack <- tl;
                 v
           in
           let push v = frame.stack <- v :: frame.stack in
           let goto target =
             frame.pc <- target;
             observer.on_block ~fidx:frame.fidx ~pc:target ~locals:frame.locals ~globals
           in
           let advance () =
             frame.pc <- frame.pc + 1;
             if frame.pc < Array.length f.Program.code && starts.(frame.fidx).(frame.pc) then
               observer.on_block ~fidx:frame.fidx ~pc:frame.pc ~locals:frame.locals ~globals
           in
           (match f.Program.code.(frame.pc) with
           | Instr.Const n ->
               push n;
               advance ()
           | Instr.Load slot ->
               push frame.locals.(slot);
               advance ()
           | Instr.Store slot ->
               frame.locals.(slot) <- pop ();
               advance ()
           | Instr.Get_global g ->
               push globals.(g);
               advance ()
           | Instr.Set_global g ->
               globals.(g) <- pop ();
               advance ()
           | Instr.Binop op ->
               let b = pop () in
               let a = pop () in
               push (eval_binop op a b);
               advance ()
           | Instr.Neg ->
               push (-pop ());
               advance ()
           | Instr.Not ->
               push (if pop () = 0 then 1 else 0);
               advance ()
           | Instr.Cmp c ->
               let b = pop () in
               let a = pop () in
               push (eval_cmp c a b);
               advance ()
           | Instr.Dup ->
               let v = pop () in
               push v;
               push v;
               advance ()
           | Instr.Pop ->
               ignore (pop ());
               advance ()
           | Instr.Swap ->
               let b = pop () in
               let a = pop () in
               push b;
               push a;
               advance ()
           | Instr.New_array ->
               push (alloc (pop ()));
               advance ()
           | Instr.Array_load ->
               let idx = pop () in
               let arr = deref (pop ()) in
               if idx < 0 || idx >= Array.length arr then raise (Trap "array index out of bounds");
               push arr.(idx);
               advance ()
           | Instr.Array_store ->
               let v = pop () in
               let idx = pop () in
               let arr = deref (pop ()) in
               if idx < 0 || idx >= Array.length arr then raise (Trap "array index out of bounds");
               arr.(idx) <- v;
               advance ()
           | Instr.Array_len ->
               push (Array.length (deref (pop ())));
               advance ()
           | Instr.Jump target -> goto target
           | Instr.If { sense; target } ->
               let v = pop () in
               let taken = (v <> 0) = sense in
               observer.on_branch ~fidx:frame.fidx ~pc:frame.pc ~taken;
               if taken then goto target else advance ()
           | Instr.Call callee ->
               let cidx =
                 match Hashtbl.find_opt fidx_of callee with
                 | Some i -> i
                 | None -> raise (Trap ("unknown function " ^ callee))
               in
               let nargs = prog.funcs.(cidx).Program.nargs in
               let rec pop_args k acc = if k = 0 then acc else pop_args (k - 1) (pop () :: acc) in
               let args = pop_args nargs [] in
               frame.pc <- frame.pc + 1;
               let callee_frame = new_frame cidx args in
               call_stack := callee_frame :: !call_stack;
               observer.on_block ~fidx:cidx ~pc:0 ~locals:callee_frame.locals ~globals
           | Instr.Ret -> begin
               let v = pop () in
               match rest with
               | [] -> finished := Some (Finished v)
               | caller :: _ ->
                   call_stack := rest;
                   caller.stack <- v :: caller.stack;
                   if
                     caller.pc < Array.length prog.funcs.(caller.fidx).Program.code
                     && starts.(caller.fidx).(caller.pc)
                   then observer.on_block ~fidx:caller.fidx ~pc:caller.pc ~locals:caller.locals ~globals
             end
           | Instr.Print ->
               outputs := pop () :: !outputs;
               advance ()
           | Instr.Read ->
               if !input_pos >= Array.length inputs then raise (Trap "input exhausted");
               push inputs.(!input_pos);
               incr input_pos;
               advance ()
           | Instr.Nop -> advance ())
     done
   with
  | Exit -> finished := Some Out_of_fuel
  | Trap reason ->
      let fidx, pc =
        match !call_stack with frame :: _ -> (frame.fidx, frame.pc) | [] -> (0, 0)
      in
      finished := Some (Trapped { fidx; pc; reason }));
  let outcome = match !finished with Some o -> o | None -> assert false in
  { outcome; outputs = List.rev !outputs; steps = !steps }
