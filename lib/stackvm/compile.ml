(* The execution engine: threaded code over OCaml closures.

   [of_program] translates every instruction of every function, once, into
   a closure of type [st -> unit] that reads its operands off a flat
   preallocated [int array] operand stack (explicit stack pointer, one
   frame base per call for exact underflow semantics), mutates the packed
   machine state, and stores the next pc.  Everything resolvable at
   translation time is resolved there: call targets become function
   indices, binops and comparisons become specialized closures, local and
   global slot bounds are checked once, branch events are pre-packed ints,
   fall-through pcs are precomputed.

   Dispatch is threaded, not looped: every op ends by replaying the
   interpreter's loop head inline — fuel gate, step count, fetch — and
   tail-calling the next op.  Distributing the dispatch over the op
   bodies gives the branch predictor one indirect-jump site per opcode
   instead of a single mega-morphic site in a central loop, which is
   worth ~20% on branchy workloads.  Ops return normally only when the
   fuel gate closes; everything else leaves by exception.

   The contract (checked by the compile test suite, with the interpreter
   as its oracle) is observational equivalence with {!Interp.run}: same
   outcome (including trap reasons and trap positions), same outputs,
   same step count, and the same branch-event sequence — on every
   program, including ones that trap or run out of fuel.

   The interpreter's block-entry observer is a translation-time option:
   [of_program ~on_block] builds each op that transfers into a block with
   a call to the hook between the transfer and the next fuel gate, the
   exact points where Interp.run calls on_block.  Trace.capture records
   embedding's block counts and variable snapshots through it.  Without
   the option the ops are built without the call, so recognition pays
   nothing for it. *)

type sink = No_trace | Buffer of Tracebuf.t | Stream of (int -> bool)

type st = {
  mutable stack : int array;  (* flat operand stack, all frames *)
  mutable sp : int;
  mutable obase : int;  (* current frame's stack floor *)
  mutable locals : int array;  (* flat locals, all frames *)
  mutable lbase : int;
  mutable ltop : int;
  mutable frames : int array;  (* suspended callers: fidx, ret pc, obase, lbase *)
  mutable fp : int;
  mutable globals : int array;
  mutable heap : int array array;
  mutable heap_len : int;
  inputs : int array;
  mutable input_pos : int;
  mutable outputs : int list;
  mutable steps : int;
  mutable fuel : int;
  mutable fidx : int;
  mutable pc : int;
  mutable ops : op array;
  sink : sink;
}

and op = st -> unit

type block_hook = fidx:int -> pc:int -> locals:int array -> lbase:int -> globals:int array -> unit

type code = {
  ops_table : op array array;
  main_idx : int;
  main_nlocals : int;
  nglobals : int;
  on_block : block_hook option;
}

exception Trap of string

exception Finish of int

exception Stream_stop

(* Raised by a jump whose static target lies outside [0, nops]: the jump
   itself succeeds (its step is already counted), and the driver then
   replays the interpreter's next loop head — fuel gate, step, "pc out of
   range" — against the bad pc.  In-range pcs never pay for this: ops
   index the ops array unchecked, with index [nops] holding a sentinel
   trap op to catch fall-through past the last instruction. *)
exception Bad_pc

let grow_stack st =
  let grown = Array.make (2 * Array.length st.stack) 0 in
  Array.blit st.stack 0 grown 0 st.sp;
  st.stack <- grown

let[@inline] push st v =
  if st.sp >= Array.length st.stack then grow_stack st;
  Array.unsafe_set st.stack st.sp v;
  st.sp <- st.sp + 1

let grow_locals st need =
  let grown = Array.make (max need (2 * Array.length st.locals)) 0 in
  Array.blit st.locals 0 grown 0 st.ltop;
  st.locals <- grown

let grow_frames st =
  let grown = Array.make (2 * Array.length st.frames) 0 in
  Array.blit st.frames 0 grown 0 st.fp;
  st.frames <- grown

let alloc st len =
  if len < 0 then raise (Trap "negative array length");
  if st.heap_len >= Array.length st.heap then begin
    let grown = Array.make (max 8 (2 * Array.length st.heap)) [||] in
    Array.blit st.heap 0 grown 0 st.heap_len;
    st.heap <- grown
  end;
  st.heap.(st.heap_len) <- Array.make len 0;
  st.heap_len <- st.heap_len + 1;
  st.heap_len - 1

let[@inline] deref st h =
  if h < 0 || h >= st.heap_len then raise (Trap "bad array handle");
  Array.unsafe_get st.heap h

(* locals and globals slots are static, so their bounds are checked at
   translation time; an out-of-range slot compiles to the exact exception
   the interpreter's array access would have raised at run time *)
let oob : op = fun _st -> raise (Invalid_argument "index out of bounds")

(* a store to an out-of-range slot: the interpreter pops its operand before
   the slot access fails, so an empty stack still traps as an underflow *)
let store_oob : op =
 fun st ->
  if st.sp <= st.obase then raise (Trap "operand stack underflow");
  raise (Invalid_argument "index out of bounds")

(* the sentinel at ops.(len): dispatched exactly when execution falls
   through past the last instruction, with st.pc already holding the
   out-of-range pc the trap must report *)
let past_end : op = fun _st -> raise (Trap "pc out of range")

(* the interpreter's loop head, replayed inline at the end of every op:
   store the pc, gate on fuel, count the step, tail-call the next op *)
let[@inline] continue_at st pc =
  st.pc <- pc;
  if st.steps < st.fuel then begin
    st.steps <- st.steps + 1;
    (Array.unsafe_get st.ops pc) st
  end

(* a block entry, reported where Interp.run calls on_block: after the
   transfer to [pc], before the next fuel gate *)
let[@inline] fire (on_block : block_hook) st pc =
  on_block ~fidx:st.fidx ~pc ~locals:st.locals ~lbase:st.lbase ~globals:st.globals

(* Op effects, shared by the plain and the block-hooked translation; each
   op closure is one effect followed by its transfer.  Operand-stack
   underflow is checked against the current frame's floor. *)

let[@inline] need st n = if st.sp - n < st.obase then raise (Trap "operand stack underflow")

let[@inline] apply_binop st impl =
  need st 2;
  let sp1 = st.sp - 1 in
  let b = Array.unsafe_get st.stack sp1 in
  let a = Array.unsafe_get st.stack (sp1 - 1) in
  Array.unsafe_set st.stack (sp1 - 1) (impl a b);
  st.sp <- sp1

let[@inline] apply_unop st impl =
  need st 1;
  let sp1 = st.sp - 1 in
  Array.unsafe_set st.stack sp1 (impl (Array.unsafe_get st.stack sp1))

let[@inline] pop st =
  need st 1;
  st.sp <- st.sp - 1;
  Array.unsafe_get st.stack st.sp

let[@inline] dup st =
  need st 1;
  push st (Array.unsafe_get st.stack (st.sp - 1))

let[@inline] set_global st g =
  let v = pop st in
  st.globals.(g) <- v

let[@inline] print st =
  let v = pop st in
  st.outputs <- v :: st.outputs

let[@inline] swap st =
  need st 2;
  let sp1 = st.sp - 1 in
  let b = Array.unsafe_get st.stack sp1 in
  Array.unsafe_set st.stack sp1 (Array.unsafe_get st.stack (sp1 - 1));
  Array.unsafe_set st.stack (sp1 - 1) b

let[@inline] new_array st =
  need st 1;
  let sp1 = st.sp - 1 in
  let h = alloc st (Array.unsafe_get st.stack sp1) in
  Array.unsafe_set st.stack sp1 h

let[@inline] array_load st =
  need st 2;
  let sp1 = st.sp - 1 in
  let idx = Array.unsafe_get st.stack sp1 in
  let arr = deref st (Array.unsafe_get st.stack (sp1 - 1)) in
  if idx < 0 || idx >= Array.length arr then raise (Trap "array index out of bounds");
  Array.unsafe_set st.stack (sp1 - 1) (Array.unsafe_get arr idx);
  st.sp <- sp1

let[@inline] array_store st =
  need st 3;
  let sp1 = st.sp - 1 in
  let v = Array.unsafe_get st.stack sp1 in
  let idx = Array.unsafe_get st.stack (sp1 - 1) in
  let arr = deref st (Array.unsafe_get st.stack (sp1 - 2)) in
  if idx < 0 || idx >= Array.length arr then raise (Trap "array index out of bounds");
  Array.unsafe_set arr idx v;
  st.sp <- sp1 - 2

let[@inline] array_len st =
  need st 1;
  let sp1 = st.sp - 1 in
  Array.unsafe_set st.stack sp1 (Array.length (deref st (Array.unsafe_get st.stack sp1)))

let[@inline] read st =
  if st.input_pos >= Array.length st.inputs then raise (Trap "input exhausted");
  push st (Array.unsafe_get st.inputs st.input_pos);
  st.input_pos <- st.input_pos + 1

(* pop the condition and report the branch event; returns whether it is taken *)
let[@inline] branch st sense packed_t packed_f =
  let taken = (pop st <> 0) = sense in
  (match st.sink with
  | No_trace -> ()
  | Buffer b -> Tracebuf.add_packed b (if taken then packed_t else packed_f)
  | Stream push -> if push (if taken then packed_t else packed_f) then raise Stream_stop);
  taken

(* push the caller's frame and enter callee [cidx] at pc 0 *)
let[@inline] call st ops_table ~cidx ~cnargs ~cnlocals ~ret =
  let abase = st.sp - cnargs in
  if abase < st.obase then raise (Trap "operand stack underflow");
  let fp = st.fp in
  if fp + 4 > Array.length st.frames then grow_frames st;
  let frames = st.frames in
  Array.unsafe_set frames fp st.fidx;
  Array.unsafe_set frames (fp + 1) ret;
  Array.unsafe_set frames (fp + 2) st.obase;
  Array.unsafe_set frames (fp + 3) st.lbase;
  st.fp <- fp + 4;
  let lbase = st.ltop in
  let ltop = lbase + cnlocals in
  if ltop > Array.length st.locals then grow_locals st ltop;
  let locals = st.locals in
  Array.fill locals lbase cnlocals 0;
  let stack = st.stack in
  for i = 0 to cnargs - 1 do
    Array.unsafe_set locals (lbase + i) (Array.unsafe_get stack (abase + i))
  done;
  st.sp <- abase;
  st.obase <- abase;
  st.lbase <- lbase;
  st.ltop <- ltop;
  st.fidx <- cidx;
  st.ops <- Array.unsafe_get ops_table cidx

(* pop the return value, finish from main or pop back into the caller;
   returns the caller's pc, its fall-through pc — at most the caller's
   code length, a valid index (sentinel at len) *)
let[@inline] return st ops_table =
  let v = pop st in
  if st.fp = 0 then raise (Finish v);
  let fp = st.fp - 4 in
  st.fp <- fp;
  let frames = st.frames in
  let rfidx = Array.unsafe_get frames fp in
  st.ltop <- st.lbase;
  st.lbase <- Array.unsafe_get frames (fp + 3);
  st.obase <- Array.unsafe_get frames (fp + 2);
  st.fidx <- rfidx;
  st.ops <- Array.unsafe_get ops_table rfidx;
  push st v;
  Array.unsafe_get frames (fp + 1)

let binop_impl (op : Instr.binop) : int -> int -> int =
  match op with
  | Instr.Add -> ( + )
  | Instr.Sub -> ( - )
  | Instr.Mul -> ( * )
  | Instr.And -> ( land )
  | Instr.Or -> ( lor )
  | Instr.Xor -> ( lxor )
  | Instr.Shl -> Interp.checked_shift_left
  | Instr.Shr -> Interp.checked_shift_right
  | Instr.Div -> fun a b -> if b = 0 then raise (Trap "division by zero") else a / b
  | Instr.Rem -> fun a b -> if b = 0 then raise (Trap "remainder by zero") else a mod b

let cmp_impl (c : Instr.cmp) : int -> int -> int =
  match c with
  | Instr.Eq -> fun a b -> if a = b then 1 else 0
  | Instr.Ne -> fun a b -> if a <> b then 1 else 0
  | Instr.Lt -> fun a b -> if a < b then 1 else 0
  | Instr.Le -> fun a b -> if a <= b then 1 else 0
  | Instr.Gt -> fun a b -> if a > b then 1 else 0
  | Instr.Ge -> fun a b -> if a >= b then 1 else 0

let negate v = -v

let logical_not v = if v = 0 then 1 else 0

(* the effect of an op that falls through to the next pc, as a closure:
   the hooked translation runs it, then the hook; the plain translation
   inlines the same helpers into one closure per op *)
let effect ~nlocals (instr : Instr.t) : st -> unit =
  match instr with
  | Instr.Const n -> fun st -> push st n
  | Instr.Load slot ->
      if slot < 0 || slot >= nlocals then oob
      else fun st -> push st (Array.unsafe_get st.locals (st.lbase + slot))
  | Instr.Store slot ->
      if slot < 0 || slot >= nlocals then store_oob
      else fun st -> Array.unsafe_set st.locals (st.lbase + slot) (pop st)
  | Instr.Get_global g -> fun st -> push st st.globals.(g)
  | Instr.Set_global g -> fun st -> set_global st g
  | Instr.Binop op ->
      let impl = binop_impl op in
      fun st -> apply_binop st impl
  | Instr.Cmp c ->
      let impl = cmp_impl c in
      fun st -> apply_binop st impl
  | Instr.Neg -> fun st -> apply_unop st negate
  | Instr.Not -> fun st -> apply_unop st logical_not
  | Instr.Dup -> dup
  | Instr.Pop -> fun st -> ignore (pop st)
  | Instr.Swap -> swap
  | Instr.New_array -> new_array
  | Instr.Array_load -> array_load
  | Instr.Array_store -> array_store
  | Instr.Array_len -> array_len
  | Instr.Print -> print
  | Instr.Read -> read
  | Instr.Nop -> ignore
  | Instr.Jump _ | Instr.If _ | Instr.Call _ | Instr.Ret -> invalid_arg "Compile.effect: a transfer op"

(* [on_block], when given, is fired at every transfer Interp.run reports;
   without it the translation carries no trace of the hook *)
let compile_func (resolved : Resolve.t) (funcs : Program.func array) ops_table ~on_block fidx
    (f : Program.func) : op array =
  let nlocals = f.Program.nlocals in
  let len = Array.length f.Program.code in
  let starts = resolved.Resolve.starts in
  (* the hook for a fall-through into [pc], if Interp.run reports one *)
  let entering pc = if pc < len && starts.(fidx).(pc) then on_block else None in
  Array.init (len + 1) (fun pc ->
      if pc = len then past_end
      else
      let instr = f.Program.code.(pc) in
      let next = pc + 1 in
      let binop impl : op =
       fun st ->
        apply_binop st impl;
        continue_at st next
      in
      let unop impl : op =
       fun st ->
        apply_unop st impl;
        continue_at st next
      in
      match (entering next, (instr : Instr.t)) with
      | _, Instr.Jump target -> (
          let bad = target < 0 || target > len in
          match on_block with
          | None ->
              if bad then fun st ->
                st.pc <- target;
                raise Bad_pc
              else fun st -> continue_at st target
          | Some h ->
              if bad then fun st ->
                st.pc <- target;
                fire h st target;
                raise Bad_pc
              else fun st ->
                fire h st target;
                continue_at st target)
      | _, Instr.If { sense; target } -> (
          let packed_t = Tracebuf.pack ~fidx ~pc ~taken:true in
          let packed_f = Tracebuf.pack ~fidx ~pc ~taken:false in
          let bad = target < 0 || target > len in
          match on_block with
          | None ->
              fun st ->
                let taken = branch st sense packed_t packed_f in
                if taken && bad then begin
                  st.pc <- target;
                  raise Bad_pc
                end
                else continue_at st (if taken then target else next)
          | Some h ->
              (* the pc after an [If] is a leader whenever it is inside the code *)
              let fall_hooked = next < len in
              fun st ->
                if branch st sense packed_t packed_f then begin
                  st.pc <- target;
                  fire h st target;
                  if bad then raise Bad_pc else continue_at st target
                end
                else begin
                  if fall_hooked then fire h st next;
                  continue_at st next
                end)
      | _, Instr.Call callee -> (
          match Hashtbl.find_opt resolved.Resolve.fidx_of callee with
          | None ->
              let msg = "unknown function " ^ callee in
              fun _st -> raise (Trap msg)
          | Some cidx -> (
              let cf = funcs.(cidx) in
              let cnargs = cf.Program.nargs and cnlocals = cf.Program.nlocals in
              match on_block with
              | None ->
                  fun st ->
                    call st ops_table ~cidx ~cnargs ~cnlocals ~ret:next;
                    continue_at st 0
              | Some h ->
                  fun st ->
                    call st ops_table ~cidx ~cnargs ~cnlocals ~ret:next;
                    fire h st 0;
                    continue_at st 0))
      | _, Instr.Ret -> (
          match on_block with
          | None -> fun st -> continue_at st (return st ops_table)
          | Some h ->
              fun st ->
                let rpc = return st ops_table in
                let rstarts = Array.unsafe_get starts st.fidx in
                if rpc < Array.length rstarts && Array.unsafe_get rstarts rpc then fire h st rpc;
                continue_at st rpc)
      (* everything else falls through to [next] *)
      | Some h, instr ->
          (* the hooked translation's ops that enter a block: effect, hook,
             transfer *)
          let effect = effect ~nlocals instr in
          fun st ->
            effect st;
            fire h st next;
            continue_at st next
      | None, Instr.Const n ->
          fun st ->
            push st n;
            continue_at st next
      | None, Instr.Load slot ->
          if slot < 0 || slot >= nlocals then oob
          else fun st ->
            push st (Array.unsafe_get st.locals (st.lbase + slot));
            continue_at st next
      | None, Instr.Store slot ->
          if slot < 0 || slot >= nlocals then store_oob
          else fun st ->
            Array.unsafe_set st.locals (st.lbase + slot) (pop st);
            continue_at st next
      | None, Instr.Get_global g ->
          fun st ->
            push st st.globals.(g);
            continue_at st next
      | None, Instr.Set_global g ->
          fun st ->
            set_global st g;
            continue_at st next
      | None, Instr.Binop op -> binop (binop_impl op)
      | None, Instr.Cmp c -> binop (cmp_impl c)
      | None, Instr.Neg -> unop negate
      | None, Instr.Not -> unop logical_not
      | None, Instr.Dup ->
          fun st ->
            dup st;
            continue_at st next
      | None, Instr.Pop ->
          fun st ->
            ignore (pop st);
            continue_at st next
      | None, Instr.Swap ->
          fun st ->
            swap st;
            continue_at st next
      | None, Instr.New_array ->
          fun st ->
            new_array st;
            continue_at st next
      | None, Instr.Array_load ->
          fun st ->
            array_load st;
            continue_at st next
      | None, Instr.Array_store ->
          fun st ->
            array_store st;
            continue_at st next
      | None, Instr.Array_len ->
          fun st ->
            array_len st;
            continue_at st next
      | None, Instr.Print ->
          fun st ->
            print st;
            continue_at st next
      | None, Instr.Read ->
          fun st ->
            read st;
            continue_at st next
      | None, Instr.Nop -> fun st -> continue_at st next)

let build ?on_block (prog : Program.t) =
  let resolved = Resolve.of_program prog in
  let main_idx =
    match resolved.Resolve.main_idx with
    | Some i -> i
    | None -> invalid_arg "Compile.of_program: main function missing"
  in
  let ops_table = Array.make (Array.length prog.funcs) [||] in
  Array.iteri
    (fun fidx f -> ops_table.(fidx) <- compile_func resolved prog.funcs ops_table ~on_block fidx f)
    prog.funcs;
  {
    ops_table;
    main_idx;
    main_nlocals = prog.funcs.(main_idx).Program.nlocals;
    nglobals = prog.nglobals;
    on_block;
  }

module Cache = Ephemeron.K1.Make (struct
  type t = Program.t

  let equal = ( == )

  let hash = Hashtbl.hash
end)

let cache = Cache.create 64

let lock = Mutex.create ()

let memoized prog =
  Mutex.lock lock;
  match Cache.find_opt cache prog with
  | Some code ->
      Mutex.unlock lock;
      code
  | None ->
      let code =
        match build prog with
        | code -> code
        | exception e ->
            Mutex.unlock lock;
            raise e
      in
      Cache.add cache prog code;
      Mutex.unlock lock;
      code

(* a hooked translation belongs to its hook's run: never memoized, so it
   is garbage as soon as that run ends *)
let of_program ?on_block prog =
  match on_block with Some _ -> build ?on_block prog | None -> memoized prog

let make_state code ~sink ~input =
  {
    stack = Array.make 256 0;
    sp = 0;
    obase = 0;
    locals = Array.make (max 256 code.main_nlocals) 0;
    lbase = 0;
    ltop = code.main_nlocals;
    frames = Array.make 64 0;
    fp = 0;
    globals = Array.make code.nglobals 0;
    heap = [||];
    heap_len = 0;
    inputs = Array.of_list input;
    input_pos = 0;
    outputs = [];
    steps = 0;
    fuel = max_int;
    fidx = code.main_idx;
    pc = 0;
    ops = code.ops_table.(code.main_idx);
    sink;
  }

(* the driver: one loop head — fuel gate, step, dispatch — in the exact
   accounting order of Interp.run; from there the ops thread themselves.
   The only normal return from the op chain is the fuel gate closing
   (every op ends with it), so a normal return IS Out_of_fuel; Finish,
   Trap and Bad_pc leave by exception, with no intervening stack frames
   because every dispatch is a tail call.  A block hook sees main's entry
   first, ahead of the first fuel gate, as Interp.run reports it. *)
let exec code st ~fuel =
  st.fuel <- fuel;
  Option.iter (fun h -> fire h st 0) code.on_block;
  let outcome =
    try
      if st.steps >= fuel then Interp.Out_of_fuel
      else begin
        st.steps <- st.steps + 1;
        (Array.unsafe_get st.ops st.pc) st;
        Interp.Out_of_fuel
      end
    with
    | Finish v -> Interp.Finished v
    | Trap reason -> Interp.Trapped { fidx = st.fidx; pc = st.pc; reason }
    | Bad_pc ->
        (* the jump's own step is already counted; replay the next loop
           head against the out-of-range pc *)
        if st.steps >= fuel then Interp.Out_of_fuel
        else begin
          st.steps <- st.steps + 1;
          Interp.Trapped { fidx = st.fidx; pc = st.pc; reason = "pc out of range" }
        end
  in
  { Interp.outcome; outputs = List.rev st.outputs; steps = st.steps }

let run ?trace ?(fuel = max_int) code ~input =
  let sink = match trace with None -> No_trace | Some buf -> Buffer buf in
  exec code (make_state code ~sink ~input) ~fuel

let run_streaming ?(fuel = max_int) code ~input ~push =
  let st = make_state code ~sink:(Stream push) ~input in
  match exec code st ~fuel with
  | result -> `Completed result
  | exception Stream_stop -> `Stopped st.steps

let run_program ?trace ?fuel prog ~input = run ?trace ?fuel (of_program prog) ~input

let equivalent_on ?fuel a b ~inputs =
  let ca = of_program a and cb = of_program b in
  List.for_all
    (fun input ->
      let ra = run ?fuel ca ~input and rb = run ?fuel cb ~input in
      let same_outcome =
        match (ra.Interp.outcome, rb.Interp.outcome) with
        | Interp.Finished x, Interp.Finished y -> x = y
        | Interp.Out_of_fuel, Interp.Out_of_fuel -> true
        | Interp.Trapped { reason = r1; _ }, Interp.Trapped { reason = r2; _ } -> r1 = r2
        | _, _ -> false
      in
      same_outcome && ra.Interp.outputs = rb.Interp.outputs)
    inputs
