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

   Hot in-block sequences of two to four instructions run as one fused op
   behind one dispatch (see "fused forms" below).  A fused op is an
   optimisation only: it first checks a guard that its sequence would run
   through without stopping, and when the guard fails it tail-calls the
   single op at its own pc, which every pc keeps, so traps, fuel cuts and
   stream stops happen exactly where the single ops have them.  No block
   leader lies strictly inside a form.

   The interpreter's block-entry observer is a translation-time option
   with one seam: [of_program ~on_block] translates the program as without
   it, then wraps the op at every block leader (and at pc 0 of an empty
   function, whose only entry is a call) in a closure that calls the hook
   before running the op.  Every transfer into a block ends at that op's
   dispatch, so the hook fires once per entry, in Interp.run's order.  The
   two entries that no dispatch follows are the driver's to report: a run
   that the fuel gate stops at an entry, and a jump to an out-of-range pc.
   Trace.capture records embedding's block counts and variable snapshots
   through the hook; without it nothing is wrapped, so recognition pays
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
  starts : bool array array;  (* Resolve's block-leader bitmaps *)
}

exception Trap of string

exception Finish of int

exception Stream_stop

(* Raised by a jump whose static target lies outside [0, nops): the jump
   itself succeeds (its step is already counted), and the driver then
   reports the block entry and replays the interpreter's next loop head —
   fuel gate, step, "pc out of range" — against the bad pc.  In-range pcs
   never pay for this: ops index the ops array unchecked, with index
   [nops] holding a sentinel trap op to catch fall-through past the last
   instruction, which enters no block. *)
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

(* Op effects; each op closure is one effect followed by its transfer.
   Operand-stack underflow is checked against the current frame's floor. *)

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

(* hand a branch event to the sink, which may stop the stream *)
let[@inline] emit st e =
  match st.sink with
  | No_trace -> ()
  | Buffer b -> Tracebuf.add_packed b e
  | Stream push -> if push e then raise Stream_stop

(* pop the condition and report the branch event; returns whether it is taken *)
let[@inline] branch st sense packed_t packed_f =
  let taken = (pop st <> 0) = sense in
  emit st (if taken then packed_t else packed_f);
  taken

(* an [If]'s transfer once its event is reported *)
let[@inline] take st taken ~target ~next ~bad =
  if taken && bad then begin
    st.pc <- target;
    raise Bad_pc
  end
  else continue_at st (if taken then target else next)

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

(* ---- fused forms ----

   A form is a hot in-block sequence of 2 to 4 instructions run by one
   closure behind one dispatch.  Its guard first checks, with reads only,
   that the single ops would run the whole sequence without stopping: the
   fuel covers the interior steps, the operand stack holds what the form
   pops beneath its own pushes, and nothing inside can trap (slots and
   constant divisors are checked when the form is chosen; array handles,
   indices and run-time divisors here).  Then it does the sequence's work
   with its operands in registers, counts the interior steps, and ends
   with the last instruction's own transfer, and its branch event if it
   is an [If].  When any check fails it tail-calls the single op at its pc,
   which is kept for exactly that, so traps, fuel cuts and stream stops
   happen where Interp.run has them.

   The forms are the sequences with the largest dynamic share over the 18
   VM workloads' runs (share of executed instructions that start the
   sequence inside one block, from the block counts of unmarked runs):

     1  Load 28.4%, Const 13.1, Binop 12.0, Cmp 9.2, If 9.2, Store 6.8,
        GetG 6.8, ALoad 5.4
     2  Load·Const 8.5, Cmp·If 6.9, Load·Load 6.9, Binop·Store 5.3,
        GetG·Load 5.1, Store·Jump 3.2, Load·ALoad 2.7
     3  Load·Cmp·If 3.7, Const·Add·Store 3.0, GetG·Load·ALoad 2.6,
        Const·Cmp·If 2.5, Load·Load·Add 2.0
     4  Load·Const·Add·Store 3.0, Load·Load·Cmp·If 2.9,
        Load·Const·Cmp·If 2.3

   With them the same runs dispatch 0.56 ops per instruction executed
   (4.69 M of 8.36 M).  Placement is a greedy segmentation from each
   leader, longest form first: a form at every matching pc, overlapping
   ones included, would make every translation larger for few more fused
   steps. *)

type form =
  | Single
  | Load_const_cmp_if of { slot : int; k : int; mask : int; target : int }
  | Load_load_cmp_if of { a : int; b : int; mask : int; target : int }
  | Load_const_binop_store of { slot : int; k : int; impl : int -> int -> int; dst : int }
  | Global_load_aload of { g : int; slot : int }
  | Load_cmp_if of { slot : int; mask : int; target : int }
  | Const_cmp_if of { k : int; mask : int; target : int }
  | Load_load_binop of { a : int; b : int; impl : int -> int -> int; checked : bool }
  | Const_binop_store of { k : int; impl : int -> int -> int; dst : int }
  | Cmp_if of { mask : int; target : int }
  | Store_jump of { dst : int; target : int }
  | Load_aload of { slot : int }
  | Global_load of { g : int; slot : int }
  | Binop_store of { impl : int -> int -> int; checked : bool; dst : int }
  | Load_load of { a : int; b : int }
  | Load_const of { slot : int; k : int }

let form_length = function
  | Single -> 1
  | Load_const_cmp_if _ | Load_load_cmp_if _ | Load_const_binop_store _ -> 4
  | Global_load_aload _ | Load_cmp_if _ | Const_cmp_if _ | Load_load_binop _ | Const_binop_store _ -> 3
  | Cmp_if _ | Store_jump _ | Load_aload _ | Global_load _ | Binop_store _ | Load_load _ | Load_const _ -> 2

(* [Cmp c] then [If sense] as one test: the branch is taken iff bit
   [compare a b + 1] of the mask is set *)
let cmp_mask (c : Instr.cmp) sense =
  let holds =
    match c with Eq -> 0b010 | Ne -> 0b101 | Lt -> 0b001 | Le -> 0b011 | Gt -> 0b100 | Ge -> 0b110
  in
  if sense then holds else holds lxor 0b111

let[@inline] below n v = v >= 0 && v < n

let traps (op : Instr.binop) = op = Instr.Div || op = Instr.Rem

let divides_const op k = k <> 0 || not (traps op)

let[@inline] instr_at code ~room pc i = if i < room then Array.unsafe_get code (pc + i) else Instr.Nop

(* the form the segmentation places at [pc], which has [room] instructions
   (at most 4) before the next leader or the end of the code.  Longest
   first; a form is chosen only when its slots are in range, its branch
   target is inside the code (a jump to the code length goes through the
   single op's Bad_pc) and its constant divisor, if any, is nonzero *)
let form_at (f : Program.func) ~nglobals ~room pc =
  let code = f.Program.code and nlocals = f.Program.nlocals in
  let len = Array.length code in
  match
    (instr_at code ~room pc 0, instr_at code ~room pc 1, instr_at code ~room pc 2, instr_at code ~room pc 3)
  with
  | Load slot, Const k, Cmp c, If { sense; target } when below nlocals slot && below len target ->
      Load_const_cmp_if { slot; k; mask = cmp_mask c sense; target }
  | Load a, Load b, Cmp c, If { sense; target }
    when below nlocals a && below nlocals b && below len target ->
      Load_load_cmp_if { a; b; mask = cmp_mask c sense; target }
  | Load slot, Const k, Binop op, Store dst
    when below nlocals slot && below nlocals dst && divides_const op k ->
      Load_const_binop_store { slot; k; impl = binop_impl op; dst }
  | Get_global g, Load slot, Array_load, _ when below nglobals g && below nlocals slot ->
      Global_load_aload { g; slot }
  | Load slot, Cmp c, If { sense; target }, _ when below nlocals slot && below len target ->
      Load_cmp_if { slot; mask = cmp_mask c sense; target }
  | Const k, Cmp c, If { sense; target }, _ when below len target ->
      Const_cmp_if { k; mask = cmp_mask c sense; target }
  | Load a, Load b, Binop op, _ when below nlocals a && below nlocals b ->
      Load_load_binop { a; b; impl = binop_impl op; checked = traps op }
  | Const k, Binop op, Store dst, _ when below nlocals dst && divides_const op k ->
      Const_binop_store { k; impl = binop_impl op; dst }
  | Cmp c, If { sense; target }, _, _ when below len target -> Cmp_if { mask = cmp_mask c sense; target }
  | Store dst, Jump target, _, _ when below nlocals dst && below len target -> Store_jump { dst; target }
  | Load slot, Array_load, _, _ when below nlocals slot -> Load_aload { slot }
  | Get_global g, Load slot, _, _ when below nglobals g && below nlocals slot -> Global_load { g; slot }
  | Binop op, Store dst, _, _ when below nlocals dst ->
      Binop_store { impl = binop_impl op; checked = traps op; dst }
  | Load a, Load b, _, _ when below nlocals a && below nlocals b -> Load_load { a; b }
  | Load slot, Const k, _, _ when below nlocals slot -> Load_const { slot; k }
  | _ -> Single

(* Greedy left-to-right segmentation: from each leader, the longest form
   that starts at the pc, else a single op; no leader lies strictly inside
   a form.  [iter_forms f ~nglobals starts g] calls [g pc form] at every
   form. *)
let iter_forms (f : Program.func) ~nglobals (starts : bool array) g =
  let len = Array.length f.Program.code in
  let pc = ref 0 in
  while !pc < len do
    let p = !pc in
    let room = ref 1 in
    while !room < 4 && p + !room < len && not (Array.unsafe_get starts (p + !room)) do
      incr room
    done;
    let form = form_at f ~nglobals ~room:!room p in
    (match form with Single -> () | _ -> g p form);
    pc := p + form_length form
  done

let fused_lengths (prog : Program.t) =
  let resolved = Resolve.of_program prog in
  Array.mapi
    (fun fidx (f : Program.func) ->
      let lengths = Array.make (Array.length f.Program.code) 1 in
      iter_forms f ~nglobals:prog.nglobals resolved.Resolve.starts.(fidx) (fun pc form ->
          lengths.(pc) <- form_length form);
      lengths)
    prog.funcs

(* the guard's reads *)
let[@inline] fits st interior = st.steps + interior <= st.fuel

let[@inline] holds st n = st.sp - n >= st.obase

let[@inline] local st slot = Array.unsafe_get st.locals (st.lbase + slot)

let[@inline] set_local st slot v = Array.unsafe_set st.locals (st.lbase + slot) v

let[@inline] stack st i = Array.unsafe_get st.stack i

let[@inline] global st g = Array.unsafe_get st.globals g

(* a run-time divisor lets a [Div] or [Rem] through only when nonzero *)
let[@inline] divides checked y = (not checked) || y <> 0

let[@inline] element_ok st h i =
  h >= 0 && h < st.heap_len && i >= 0 && i < Array.length (Array.unsafe_get st.heap h)

let[@inline] element st h i = Array.unsafe_get (Array.unsafe_get st.heap h) i

(* room for [n] <= 2 pushes: the stack starts 256 deep, so one doubling
   is enough *)
let[@inline] reserve st n = if st.sp + n > Array.length st.stack then grow_stack st

let[@inline] push1 st v =
  reserve st 1;
  Array.unsafe_set st.stack st.sp v;
  st.sp <- st.sp + 1

let[@inline] push2 st a b =
  reserve st 2;
  let sp = st.sp in
  Array.unsafe_set st.stack sp a;
  Array.unsafe_set st.stack (sp + 1) b;
  st.sp <- sp + 2

(* a form's end: count its interior steps, then the last instruction's
   transfer — a fall-through, or a branch whose event is [site lor bit],
   taken when [bit] is 1 *)
let[@inline] leave st interior next =
  st.steps <- st.steps + interior;
  continue_at st next

let[@inline] decide st interior bit site ~target ~next =
  st.steps <- st.steps + interior;
  emit st (site lor bit);
  continue_at st (if bit <> 0 then target else next)

(* [Cmp] then [If] as one test: bit [compare a b + 1] of the mask *)
let[@inline] test mask a b = (mask lsr (compare (a : int) b + 1)) land 1

(* the closure for [form] at [pc]; [single] is the single op at [pc] *)
let fused ~fidx ~(single : op) pc form : op =
  let next = pc + form_length form in
  (* a branch's not-taken event, for forms that end in an [If] *)
  let site = Tracebuf.pack ~fidx ~pc:(next - 1) ~taken:false in
  match form with
  | Single -> single
  | Load_const_cmp_if { slot; k; mask; target } ->
      fun st -> if fits st 3 then decide st 3 (test mask (local st slot) k) site ~target ~next else single st
  | Load_load_cmp_if { a; b; mask; target } ->
      fun st ->
        if fits st 3 then decide st 3 (test mask (local st a) (local st b)) site ~target ~next else single st
  | Load_cmp_if { slot; mask; target } ->
      fun st ->
        if fits st 2 && holds st 1 then begin
          let sp = st.sp - 1 in
          st.sp <- sp;
          decide st 2 (test mask (stack st sp) (local st slot)) site ~target ~next
        end
        else single st
  | Const_cmp_if { k; mask; target } ->
      fun st ->
        if fits st 2 && holds st 1 then begin
          let sp = st.sp - 1 in
          st.sp <- sp;
          decide st 2 (test mask (stack st sp) k) site ~target ~next
        end
        else single st
  | Cmp_if { mask; target } ->
      fun st ->
        if fits st 1 && holds st 2 then begin
          let sp = st.sp - 2 in
          st.sp <- sp;
          decide st 1 (test mask (stack st sp) (stack st (sp + 1))) site ~target ~next
        end
        else single st
  | Store_jump { dst; target } ->
      fun st ->
        if fits st 1 && holds st 1 then begin
          let sp = st.sp - 1 in
          st.sp <- sp;
          set_local st dst (stack st sp);
          leave st 1 target
        end
        else single st
  (* the forms that fall through to [next] *)
  | Load_const_binop_store { slot; k; impl; dst } ->
      fun st ->
        if fits st 3 then begin
          set_local st dst (impl (local st slot) k);
          leave st 3 next
        end
        else single st
  | Global_load_aload { g; slot } ->
      fun st ->
        let a = global st g and i = local st slot in
        if fits st 2 && element_ok st a i then begin
          push1 st (element st a i);
          leave st 2 next
        end
        else single st
  | Load_load_binop { a; b; impl; checked } ->
      fun st ->
        let y = local st b in
        if fits st 2 && divides checked y then begin
          push1 st (impl (local st a) y);
          leave st 2 next
        end
        else single st
  | Const_binop_store { k; impl; dst } ->
      fun st ->
        if fits st 2 && holds st 1 then begin
          let sp = st.sp - 1 in
          st.sp <- sp;
          set_local st dst (impl (stack st sp) k);
          leave st 2 next
        end
        else single st
  | Load_aload { slot } ->
      fun st ->
        if fits st 1 && holds st 1 && element_ok st (stack st (st.sp - 1)) (local st slot) then begin
          let top = st.sp - 1 in
          Array.unsafe_set st.stack top (element st (stack st top) (local st slot));
          leave st 1 next
        end
        else single st
  | Global_load { g; slot } ->
      fun st ->
        if fits st 1 then begin
          push2 st (global st g) (local st slot);
          leave st 1 next
        end
        else single st
  | Binop_store { impl; checked; dst } ->
      fun st ->
        if fits st 1 && holds st 2 && divides checked (stack st (st.sp - 1)) then begin
          let sp = st.sp - 2 in
          st.sp <- sp;
          set_local st dst (impl (stack st sp) (stack st (sp + 1)));
          leave st 1 next
        end
        else single st
  | Load_load { a; b } ->
      fun st ->
        if fits st 1 then begin
          push2 st (local st a) (local st b);
          leave st 1 next
        end
        else single st
  | Load_const { slot; k } ->
      fun st ->
        if fits st 1 then begin
          push2 st (local st slot) k;
          leave st 1 next
        end
        else single st

(* Every pc gets its single op; then each form the segmentation places
   takes over its first pc and keeps that single op as its fallback. *)
let compile_func (resolved : Resolve.t) (funcs : Program.func array) ops_table ~nglobals fidx
    (f : Program.func) : op array =
  let nlocals = f.Program.nlocals in
  let len = Array.length f.Program.code in
  let ops = Array.init (len + 1) (fun pc ->
      if pc = len then past_end
      else
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
      match (f.Program.code.(pc) : Instr.t) with
      | Instr.Jump target ->
          if target < 0 || target >= len then fun st ->
            st.pc <- target;
            raise Bad_pc
          else fun st -> continue_at st target
      | Instr.If { sense; target } ->
          let packed_t = Tracebuf.pack ~fidx ~pc ~taken:true in
          let packed_f = Tracebuf.pack ~fidx ~pc ~taken:false in
          let bad = target < 0 || target >= len in
          fun st -> take st (branch st sense packed_t packed_f) ~target ~next ~bad
      | Instr.Call callee -> (
          match Hashtbl.find_opt resolved.Resolve.fidx_of callee with
          | None ->
              let msg = "unknown function " ^ callee in
              fun _st -> raise (Trap msg)
          | Some cidx ->
              let cf = funcs.(cidx) in
              let cnargs = cf.Program.nargs and cnlocals = cf.Program.nlocals in
              fun st ->
                call st ops_table ~cidx ~cnargs ~cnlocals ~ret:next;
                continue_at st 0)
      | Instr.Ret -> fun st -> continue_at st (return st ops_table)
      (* everything else falls through to [next] *)
      | Instr.Const n ->
          fun st ->
            push st n;
            continue_at st next
      | Instr.Load slot ->
          if slot < 0 || slot >= nlocals then oob
          else fun st ->
            push st (Array.unsafe_get st.locals (st.lbase + slot));
            continue_at st next
      | Instr.Store slot ->
          if slot < 0 || slot >= nlocals then store_oob
          else fun st ->
            Array.unsafe_set st.locals (st.lbase + slot) (pop st);
            continue_at st next
      | Instr.Get_global g ->
          fun st ->
            push st st.globals.(g);
            continue_at st next
      | Instr.Set_global g ->
          fun st ->
            set_global st g;
            continue_at st next
      | Instr.Binop op -> binop (binop_impl op)
      | Instr.Cmp c -> binop (cmp_impl c)
      | Instr.Neg -> unop negate
      | Instr.Not -> unop logical_not
      | Instr.Dup ->
          fun st ->
            dup st;
            continue_at st next
      | Instr.Pop ->
          fun st ->
            ignore (pop st);
            continue_at st next
      | Instr.Swap ->
          fun st ->
            swap st;
            continue_at st next
      | Instr.New_array ->
          fun st ->
            new_array st;
            continue_at st next
      | Instr.Array_load ->
          fun st ->
            array_load st;
            continue_at st next
      | Instr.Array_store ->
          fun st ->
            array_store st;
            continue_at st next
      | Instr.Array_len ->
          fun st ->
            array_len st;
            continue_at st next
      | Instr.Print ->
          fun st ->
            print st;
            continue_at st next
      | Instr.Read ->
          fun st ->
            read st;
            continue_at st next
      | Instr.Nop -> fun st -> continue_at st next)
  in
  iter_forms f ~nglobals resolved.Resolve.starts.(fidx) (fun pc form ->
      ops.(pc) <- fused ~fidx ~single:ops.(pc) pc form);
  ops

(* whether the op at [pc] of a function with leader bitmap [starts] is
   wrapped with the block hook: a block leader, or pc 0 of an empty
   function, whose only entry is a call *)
let entry starts pc = if Array.length starts = 0 then pc = 0 else pc < Array.length starts && starts.(pc)

let of_program ?on_block (prog : Program.t) =
  let resolved = Resolve.of_program prog in
  let main_idx =
    match resolved.Resolve.main_idx with
    | Some i -> i
    | None -> invalid_arg "Compile.of_program: main function missing"
  in
  let starts = resolved.Resolve.starts in
  let ops_table = Array.make (Array.length prog.funcs) [||] in
  Array.iteri
    (fun fidx f -> ops_table.(fidx) <- compile_func resolved prog.funcs ops_table ~nglobals:prog.nglobals fidx f)
    prog.funcs;
  (* the block hook's one seam: the wrapped op at an entry reports it when
     dispatched; [exec] reports the entries no dispatch follows *)
  Option.iter
    (fun (h : block_hook) ->
      Array.iteri
        (fun fidx ops ->
          Array.iteri
            (fun pc (op : op) ->
              if entry starts.(fidx) pc then
                ops.(pc) <-
                  fun st ->
                    h ~fidx ~pc ~locals:st.locals ~lbase:st.lbase ~globals:st.globals;
                    op st)
            ops)
        ops_table)
    on_block;
  {
    ops_table;
    main_idx;
    main_nlocals = prog.funcs.(main_idx).Program.nlocals;
    nglobals = prog.nglobals;
    on_block;
    starts;
  }

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
   because every dispatch is a tail call.  A block hook fires in the
   wrapped ops, and here for the two entries no dispatch follows: a fuel
   cut at an entry (main's entry at fuel 0 among them) and a jump to an
   out-of-range pc, which Interp.run reports before its next loop head. *)
let exec code st ~fuel =
  st.fuel <- fuel;
  let report () =
    Option.iter
      (fun (h : block_hook) -> h ~fidx:st.fidx ~pc:st.pc ~locals:st.locals ~lbase:st.lbase ~globals:st.globals)
      code.on_block
  in
  let outcome =
    try
      if st.steps < fuel then begin
        st.steps <- st.steps + 1;
        (Array.unsafe_get st.ops st.pc) st
      end;
      if entry code.starts.(st.fidx) st.pc then report ();
      Interp.Out_of_fuel
    with
    | Finish v -> Interp.Finished v
    | Trap reason -> Interp.Trapped { fidx = st.fidx; pc = st.pc; reason }
    | Bad_pc ->
        (* the jump's own step is already counted; replay the next loop
           head against the out-of-range pc *)
        report ();
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
