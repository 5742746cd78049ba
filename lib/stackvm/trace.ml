type branch_event = { fidx : int; pc : int; taken : bool }

type snapshot = { locals : int array; globals : int array }

type t = {
  branches : branch_event array;
  events : Tracebuf.t;
  visits : (int * int, snapshot list) Hashtbl.t;
  block_counts : (int * int, int) Hashtbl.t;
  result : Interp.result;
}

let max_snapshots_per_block = 8

let branches_of_buf buf =
  Array.init (Tracebuf.length buf) (fun i ->
      let e = Tracebuf.get buf i in
      { fidx = Tracebuf.fidx e; pc = Tracebuf.pc e; taken = Tracebuf.taken e })

let buf_of_branches events =
  let buf = Tracebuf.create ~capacity:(max 1 (List.length events)) () in
  List.iter (fun { fidx; pc; taken } -> Tracebuf.add buf ~fidx ~pc ~taken) events;
  buf

(* Snapshot capture on the compiled engine.  Counts and the first visits'
   snapshots live in per-function arrays indexed by pc (one slot past the
   code for a jump to its end); the rare entry at an out-of-range pc, which
   only a broken program makes, goes to a side table.  The result tables
   are then filled in first-visit order — the order the reference
   interpreter's observer inserts keys — because [hot_blocks] breaks count
   ties by table order and the embedder picks its sites by index into that
   list.  The run records no branch events: embedding never reads them,
   and appending them cost about a quarter of the capture. *)
let compiled_snapshots ?fuel (prog : Program.t) ~input =
  let funcs = prog.Program.funcs in
  let counts = Array.map (fun f -> Array.make (Array.length f.Program.code + 1) 0) funcs in
  let snaps = Array.map (fun f -> Array.make (Array.length f.Program.code + 1) []) funcs in
  let stray = Hashtbl.create 1 in
  let order = ref [] in
  let snapshot fidx locals lbase globals =
    { locals = Array.sub locals lbase funcs.(fidx).Program.nlocals; globals = Array.copy globals }
  in
  let on_block ~fidx ~pc ~locals ~lbase ~globals =
    let c = counts.(fidx) in
    if pc >= 0 && pc < Array.length c then begin
      let n = c.(pc) in
      c.(pc) <- n + 1;
      if n = 0 then order := (fidx, pc) :: !order;
      if n < max_snapshots_per_block then
        snaps.(fidx).(pc) <- snapshot fidx locals lbase globals :: snaps.(fidx).(pc)
    end
    else begin
      let n, kept = Option.value ~default:(0, []) (Hashtbl.find_opt stray (fidx, pc)) in
      if n = 0 then order := (fidx, pc) :: !order;
      let kept =
        if n < max_snapshots_per_block then snapshot fidx locals lbase globals :: kept else kept
      in
      Hashtbl.replace stray (fidx, pc) (n + 1, kept)
    end
  in
  let result = Compile.run ?fuel (Compile.of_program ~on_block prog) ~input in
  let visits = Hashtbl.create 256 and block_counts = Hashtbl.create 256 in
  List.iter
    (fun ((fidx, pc) as key) ->
      let n, kept =
        if pc >= 0 && pc < Array.length counts.(fidx) then (counts.(fidx).(pc), snaps.(fidx).(pc))
        else Hashtbl.find stray key
      in
      Hashtbl.replace block_counts key n;
      Hashtbl.replace visits key (List.rev kept))
    (List.rev !order);
  { branches = [||]; events = Tracebuf.create ~capacity:1 (); visits; block_counts; result }

(* sized for real traces up front — repeated doubling from a small
   capacity would rival the traced run itself in cost *)
let record ?fuel prog ~input =
  let events = Tracebuf.create ~capacity:65536 () in
  (events, Compile.run_program ~trace:events ?fuel prog ~input)

let capture ?fuel ?(want_snapshots = true) prog ~input =
  if want_snapshots then compiled_snapshots ?fuel prog ~input
  else
    let events, result = record ?fuel prog ~input in
    {
      branches = branches_of_buf events;
      events;
      visits = Hashtbl.create 1;
      block_counts = Hashtbl.create 1;
      result;
    }

(* The branch sites seen so far, in one open-addressed [int array]: a slot
   holds the first event of its site ([site lsl 1 lor direction], which is
   the packed event itself) or -1 when empty, with linear probing from a
   multiplicative hash and growth at half load.  A hit costs one multiply,
   one load and one compare.  Packed events use all 63 bits, so exactly one
   first event is unstorable: the all-ones site (fidx and pc both
   2^31 - 1) taken reads as -1.  That site, which only a crafted trace
   file can produce, lives beside the table, so probing for it always
   ends at an empty slot. *)
module Sites = struct
  type t = {
    mutable slots : int array;
    mutable ids : int array;  (* per slot, its site's id *)
    mutable shift : int;  (* [63 - log2 (Array.length slots)] *)
    mutable count : int;
    mutable top_id : int;  (* the all-ones site's id, -1 until it occurs *)
    mutable top_taken : bool;  (* and its first direction *)
  }

  let top = max_int

  let initial_bits = 8

  let create () =
    {
      slots = Array.make (1 lsl initial_bits) (-1);
      ids = Array.make (1 lsl initial_bits) 0;
      shift = 63 - initial_bits;
      count = 0;
      top_id = -1;
      top_taken = false;
    }

  let rec probe slots mask site i =
    let e = Array.unsafe_get slots i in
    if Tracebuf.site e = site || e = -1 then i else probe slots mask site ((i + 1) land mask)

  (* the slot holding [packed]'s site, or the empty slot where it belongs;
     the home slot is tried inline *)
  let[@inline] find t packed =
    let site = Tracebuf.site packed and slots = t.slots in
    let home = (site * 0x2545F4914F6CDD1D) lsr t.shift in
    if Tracebuf.site (Array.unsafe_get slots home) = site then home
    else probe slots (Array.length slots - 1) site home

  let grow t =
    let slots = t.slots and ids = t.ids in
    t.slots <- Array.make (2 * Array.length slots) (-1);
    t.ids <- Array.make (2 * Array.length slots) 0;
    t.shift <- t.shift - 1;
    Array.iteri
      (fun k e ->
        if e <> -1 then begin
          let i = find t e in
          t.slots.(i) <- e;
          t.ids.(i) <- ids.(k)
        end)
      slots

  (* first occurrence of a site: it takes the next id *)
  let add t packed =
    let id = t.count in
    t.count <- id + 1;
    if Tracebuf.site packed = top then begin
      t.top_id <- id;
      t.top_taken <- Tracebuf.taken packed
    end
    else begin
      if 2 * t.count > Array.length t.slots then grow t;
      let i = find t packed in
      t.slots.(i) <- packed;
      t.ids.(i) <- id
    end;
    id

  let[@inline] seen_top t packed = Tracebuf.site packed = top && t.top_id >= 0

  let id t packed =
    let i = find t packed in
    if Array.unsafe_get t.slots i <> -1 then Array.unsafe_get t.ids i
    else if seen_top t packed then t.top_id
    else add t packed

  let count t = t.count
end

(* Incremental trace-bit decoder: the first dynamic occurrence of a branch
   site fixes its reference direction (bit 0); later occurrences decode to
   whether they deviate — the XOR of the event with the first event its
   site's slot holds. *)
module Decoder = struct
  type t = Sites.t

  let create = Sites.create

  let push d packed =
    let first = Array.unsafe_get d.Sites.slots (Sites.find d packed) in
    if first <> -1 then (first lxor packed) land 1 = 1
    else if Sites.seen_top d packed then Tracebuf.taken packed <> d.Sites.top_taken
    else begin
      ignore (Sites.add d packed);
      false
    end
end

let bits_of_buf buf =
  let d = Decoder.create () in
  let bits = Util.Bitstring.create () in
  Tracebuf.iter (fun e -> Util.Bitstring.append bits (Decoder.push d e)) buf;
  bits

let hot_blocks t =
  let entries = Hashtbl.fold (fun key count acc -> (key, count) :: acc) t.block_counts [] in
  List.sort (fun (_, c1) (_, c2) -> Stdlib.compare c2 c1) entries

let save_events buf =
  let out = Buffer.create (16 * Tracebuf.length buf) in
  Buffer.add_string out "TRC1";
  Util.Varint.add out (Tracebuf.length buf);
  Tracebuf.iter
    (fun e ->
      Util.Varint.add out (Tracebuf.fidx e);
      Util.Varint.add out (Tracebuf.pc e);
      Util.Varint.add out (if Tracebuf.taken e then 1 else 0))
    buf;
  Buffer.contents out

(* Salvage parser: a trace file is recognition evidence, and the CRT
   redundancy downstream is precisely what makes partial evidence usable —
   so malformed bytes yield the longest cleanly-decoded event prefix plus
   a diagnostic, never an exception.  The header's event count is
   untrusted: the buffer starts no larger than the bytes could hold (an
   event takes at least three) and grows only as events actually decode. *)
let salvage_events s =
  let len = String.length s in
  let out = Tracebuf.create ~capacity:(min 65536 (len / 3)) () in
  if len < 4 || String.sub s 0 4 <> "TRC1" then (out, Some "bad magic (expected TRC1)")
  else begin
    let r = Util.Varint.reader ~pos:4 s in
    let varint () = Util.Varint.varint r in
    match
      let n = varint () in
      (* decode sequentially: iteration order must follow the byte stream *)
      for _ = 1 to n do
        let fidx = varint () in
        let pc = varint () in
        let taken = varint () = 1 in
        Tracebuf.add out ~fidx ~pc ~taken
      done;
      let rest = Util.Varint.remaining r in
      if rest <> 0 then Some (Printf.sprintf "%d trailing byte(s) after %d event(s)" rest n) else None
    with
    | diag -> (out, diag)
    | exception Util.Varint.Malformed reason ->
        ( out,
          Some
            (Printf.sprintf "%s at byte %d; salvaged %d event(s)" reason (Util.Varint.pos r)
               (Tracebuf.length out)) )
  end

let load_events s = fst (salvage_events s)
