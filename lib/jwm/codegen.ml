open Stackvm

type discriminator = { read : Instr.t; visit0 : int; visit1 : int }

let find_discriminator ?(allowed = fun _ -> true) (s0 : Trace.snapshot) (s1 : Trace.snapshot)
    ~nlocals =
  let local =
    let rec go k =
      if k >= nlocals || k >= Array.length s0.Trace.locals || k >= Array.length s1.Trace.locals then None
      else if allowed k && s0.Trace.locals.(k) <> s1.Trace.locals.(k) then
        Some { read = Instr.Load k; visit0 = s0.Trace.locals.(k); visit1 = s1.Trace.locals.(k) }
      else go (k + 1)
    in
    go 0
  in
  match local with
  | Some _ as found -> found
  | None ->
      let rec go g =
        if g >= Array.length s0.Trace.globals || g >= Array.length s1.Trace.globals then None
        else if s0.Trace.globals.(g) <> s1.Trace.globals.(g) then
          Some { read = Instr.Get_global g; visit0 = s0.Trace.globals.(g); visit1 = s1.Trace.globals.(g) }
        else go (g + 1)
      in
      go 0

let fallback_discriminator ~counter_global =
  { read = Instr.Get_global counter_global; visit0 = 1; visit1 = 2 }

(* Guard the never-executed live update: push a false value, then an [If]
   with sense=false — always taken, skipping the update of the sink
   global.  [acc_slot] holds the snippet's accumulator, so the update looks
   like a real data flow into live state.  The default predicate is an
   opaquely false shape over [pred_slot]; [?guard] overrides it with a
   caller-supplied predicate (the stealth mode substitutes trace-derived
   comparisons a constant folder cannot decide).  [at] is the guard's
   offset in its snippet, which its branch target is relative to. *)
let live_guard ?guard rng ~acc_slot ~pred_slot ~sink_global ~at =
  let predicate =
    match guard with Some p -> p | None -> Opaque.false_predicate rng ~slot:pred_slot
  in
  predicate
  @ [
      Instr.If { sense = false; target = at + List.length predicate + 5 };
      Instr.Get_global sink_global;
      Instr.Load acc_slot;
      Instr.Binop Instr.Add;
      Instr.Set_global sink_global;
    ]

let loop_constant ~bits =
  let b = List.length bits in
  let priming = List.nth bits (b - 1) in
  (* iteration 0 tests the priming direction; iteration k (1..b) tests
     payload bit k-1 xor priming; bit b is then always 0, so the constant
     fits in b bits. *)
  let constant = ref (if priming then 1 else 0) in
  List.iteri (fun k c -> if c <> priming then constant := !constant lor (1 lsl (k + 1))) bits;
  (!constant, b + 1)

let loop_snippet ?guard ~rng ~bits ~first_local ~sink_global () =
  let value_slot = first_local in
  let counter_slot = first_local + 1 in
  let acc_slot = first_local + 2 in
  let constant, iterations = loop_constant ~bits in
  let body =
    Asm.
      [
        I (Instr.Const constant);
        I (Instr.Store value_slot);
        I (Instr.Const iterations);
        I (Instr.Store counter_slot);
        I (Instr.Const 0);
        I (Instr.Store acc_slot);
        L "loop";
        (* inner branch: the payload carrier *)
        I (Instr.Load value_slot);
        I (Instr.Const 1);
        I (Instr.Binop Instr.And);
        Br (true, "take");
        Jmp "after";
        L "take";
        I (Instr.Load acc_slot);
        I (Instr.Const 1);
        I (Instr.Binop Instr.Add);
        I (Instr.Store acc_slot);
        L "after";
        I (Instr.Load value_slot);
        I (Instr.Const 1);
        I (Instr.Binop Instr.Shr);
        I (Instr.Store value_slot);
        I (Instr.Load counter_slot);
        I (Instr.Const 1);
        I (Instr.Binop Instr.Sub);
        I (Instr.Store counter_slot);
        (* loop-control branch: contributes the interleaved stride-2 bit *)
        I (Instr.Load counter_slot);
        Br (true, "loop");
      ]
    |> Asm.assemble
  in
  ( body @ live_guard ?guard rng ~acc_slot ~pred_slot:value_slot ~sink_global ~at:(List.length body),
    first_local + 3 )

(* Stealth guard predicates: false on every (loop) or every traced
   (condition) execution, yet statically undecidable — the leaf value is
   unknown to a constant folder.  At the loop guard [value_slot] has been
   shifted down to 0, so comparing it to any nonzero constant is false. *)
let stealth_loop_guard rng ~value_slot =
  [ Instr.Load value_slot; Instr.Const (1 + Util.Prng.int rng 1000); Instr.Cmp Instr.Eq ]

(* A sentinel value different from both traced values, for the
   constant-true comparisons of 0-bits. *)
let sentinel rng a b =
  let rec go () =
    let s = Util.Prng.int_in rng (-1000000) 1000000 in
    if s <> a && s <> b then s else go ()
  in
  go ()

let find_pool ?(allowed = fun _ -> true) (s0 : Trace.snapshot) (s1 : Trace.snapshot) ~nlocals =
  let locals =
    List.init (min nlocals (min (Array.length s0.Trace.locals) (Array.length s1.Trace.locals)))
      (fun k -> { read = Instr.Load k; visit0 = s0.Trace.locals.(k); visit1 = s1.Trace.locals.(k) })
    |> List.filteri (fun k _ -> allowed k)
  in
  let globals =
    List.init (min (Array.length s0.Trace.globals) (Array.length s1.Trace.globals)) (fun g ->
        { read = Instr.Get_global g; visit0 = s0.Trace.globals.(g); visit1 = s1.Trace.globals.(g) })
  in
  locals @ globals

(* A predicate over a pool variable that holds on both recorded visits —
   the building block of the paper's compound (ANDed) conditions. Pushes a
   0/1 comparison result. *)
let both_true_predicate rng (d : discriminator) =
  let lo = min d.visit0 d.visit1 and hi = max d.visit0 d.visit1 in
  match Util.Prng.int rng 3 with
  | 0 -> [ d.read; Instr.Const (sentinel rng d.visit0 d.visit1); Instr.Cmp Instr.Ne ]
  | 1 -> [ d.read; Instr.Const (hi + Util.Prng.int_in rng 0 1000); Instr.Cmp Instr.Le ]
  | _ -> [ d.read; Instr.Const (lo - Util.Prng.int_in rng 0 1000); Instr.Cmp Instr.Ge ]

(* A predicate over the primary discriminator that is true on the priming
   visit and false on the emitting visit. *)
let differs_predicate rng (d : discriminator) =
  assert (d.visit0 <> d.visit1);
  match Util.Prng.int rng 2 with
  | 0 -> [ d.read; Instr.Const d.visit0; Instr.Cmp Instr.Eq ]
  | _ ->
      if d.visit0 < d.visit1 then
        (* d <= t with v0 <= t < v1: true at visit 0 only *)
        [ d.read; Instr.Const (Util.Prng.int_in rng d.visit0 (d.visit1 - 1)); Instr.Cmp Instr.Le ]
      else [ d.read; Instr.Const (Util.Prng.int_in rng (d.visit1 + 1) d.visit0); Instr.Cmp Instr.Ge ]

(* False on both traced visits (the sentinel differs from both recorded
   values); a later visit may rarely flip it, which only executes the
   harmless sink update. *)
let stealth_discriminator_guard rng (d : discriminator) =
  [ d.read; Instr.Const (sentinel rng d.visit0 d.visit1); Instr.Cmp Instr.Eq ]

let condition_snippet ?(pool = []) ?guard ~rng ~bits ~discriminator ~counter_global ~first_local
    ~sink_global () =
  let acc_slot = first_local in
  let d = discriminator in
  let prologue =
    match counter_global with
    | None -> []
    | Some g -> [ Instr.Get_global g; Instr.Const 1; Instr.Binop Instr.Add; Instr.Set_global g ]
  in
  (* Emitted in reverse with a running offset: each test branches to just
     past its own increment, so no label is named or resolved. *)
  let code = ref (List.rev prologue) and pc = ref (List.length prologue) in
  let emit i =
    code := i :: !code;
    incr pc
  in
  emit (Instr.Const 0);
  emit (Instr.Store acc_slot);
  List.iter
    (fun c ->
      (* The branch must be taken on the priming visit; on the emitting
         visit it is taken iff the payload bit is 0.  Predicates are
         built from traced variable values and, when a pool of
         variables is available, ANDed into compound conditions (the
         paper's stealth measure: "arbitrarily complex conditional
         statements using existing program variables"). *)
      let base = if c then differs_predicate rng d else both_true_predicate rng d in
      let predicate =
        if pool <> [] && Util.Prng.int rng 3 = 0 then begin
          (* AND in a both-true conjunct: it never changes the truth
             pattern on the two visits that matter *)
          let extra = both_true_predicate rng (Util.Prng.pick_list rng pool) in
          base @ extra @ [ Instr.Binop Instr.And ]
        end
        else base
      in
      List.iter emit predicate;
      emit (Instr.If { sense = true; target = !pc + 5 });
      emit (Instr.Load acc_slot);
      emit (Instr.Const 1);
      emit (Instr.Binop Instr.Add);
      emit (Instr.Store acc_slot))
    bits;
  ( List.rev_append !code (live_guard ?guard rng ~acc_slot ~pred_slot:acc_slot ~sink_global ~at:!pc),
    first_local + 1 )
