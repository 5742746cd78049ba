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
   list. *)
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
  let events = Tracebuf.create ~capacity:65536 () in
  let result = Compile.run ~trace:events ?fuel (Compile.of_program ~on_block prog) ~input in
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
  { branches = [||]; events; visits; block_counts; result }

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

(* Incremental trace-bit decoder: the first dynamic occurrence of a branch
   site fixes its reference direction (bit 0); later occurrences decode to
   whether they deviate.  Keyed by the packed site int, so pushing an
   event costs one int-keyed Hashtbl probe and nothing else. *)
module Decoder = struct
  type t = { first : (int, bool) Hashtbl.t }

  let create () = { first = Hashtbl.create 64 }

  let push d packed =
    let site = Tracebuf.site packed in
    let taken = Tracebuf.taken packed in
    match Hashtbl.find_opt d.first site with
    | None ->
        Hashtbl.add d.first site taken;
        false
    | Some reference -> taken <> reference
end

let bits_of_buf buf =
  let d = Decoder.create () in
  let bits = Util.Bitstring.create () in
  Tracebuf.iter (fun e -> Util.Bitstring.append bits (Decoder.push d e)) buf;
  bits

let bitstring t = bits_of_buf t.events

let hot_blocks t =
  let entries = Hashtbl.fold (fun key count acc -> (key, count) :: acc) t.block_counts [] in
  List.sort (fun (_, c1) (_, c2) -> Stdlib.compare c2 c1) entries

let save_events buf =
  let buf_out = Buffer.create (16 * Tracebuf.length buf) in
  Buffer.add_string buf_out "TRC1";
  let varint v =
    let rec go v =
      if v < 0x80 then Buffer.add_char buf_out (Char.chr v)
      else begin
        Buffer.add_char buf_out (Char.chr (0x80 lor (v land 0x7F)));
        go (v lsr 7)
      end
    in
    go v
  in
  varint (Tracebuf.length buf);
  Tracebuf.iter
    (fun e ->
      varint (Tracebuf.fidx e);
      varint (Tracebuf.pc e);
      varint (if Tracebuf.taken e then 1 else 0))
    buf;
  Buffer.contents buf_out

exception Malformed of string

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
    let pos = ref 4 in
    let byte () =
      if !pos >= len then raise (Malformed "truncated");
      let b = Char.code s.[!pos] in
      incr pos;
      b
    in
    let varint () =
      let rec go shift acc =
        if shift > 62 then raise (Malformed "varint overflow");
        let b = byte () in
        let acc = acc lor ((b land 0x7F) lsl shift) in
        if b land 0x80 = 0 then acc else go (shift + 7) acc
      in
      go 0 0
    in
    match
      let n = varint () in
      (* decode sequentially: iteration order must follow the byte stream *)
      for _ = 1 to n do
        let fidx = varint () in
        let pc = varint () in
        let taken = varint () = 1 in
        Tracebuf.add out ~fidx ~pc ~taken
      done;
      if !pos <> len then Some (Printf.sprintf "%d trailing byte(s) after %d event(s)" (len - !pos) n)
      else None
    with
    | diag -> (out, diag)
    | exception Malformed reason ->
        ( out,
          Some
            (Printf.sprintf "%s at byte %d; salvaged %d event(s)" reason !pos (Tracebuf.length out))
        )
  end

let load_events s = fst (salvage_events s)
