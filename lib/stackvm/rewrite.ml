let insert_many (f : Program.func) inserts =
  let code = f.Program.code in
  let n = Array.length code in
  List.iter (fun (at, _) -> if at < 0 || at > n then invalid_arg "Rewrite.insert: bad position") inserts;
  (* Application order: descending position, ties in list order. *)
  let sorted = Array.of_list (List.stable_sort (fun (a, _) (b, _) -> Stdlib.compare b a) inserts) in
  let snippets = Array.map (fun (_, c) -> Array.of_list c) sorted in
  (* [before.(p)]: instructions inserted at positions below [p]. *)
  let before = Array.make (n + 2) 0 in
  Array.iteri (fun i (at, _) -> before.(at + 1) <- before.(at + 1) + Array.length snippets.(i)) sorted;
  for p = 1 to n + 1 do
    before.(p) <- before.(p) + before.(p - 1)
  done;
  let total = before.(n + 1) in
  (* Targets [<= at] stay put under each insertion, so a branch that used
     to reach [t] enters the first snippet inserted there. *)
  let host t = if t <= 0 then t else if t > n then t + total else t + before.(t) in
  let out = Array.make (n + total) Instr.Nop in
  let pos = ref 0 and i = ref (Array.length sorted - 1) and later = ref 0 in
  for p = 0 to n do
    (* The last-applied snippet at [p] lands first. *)
    while !i >= 0 && fst sorted.(!i) = p do
      let s = snippets.(!i) in
      (* Snippet-relative target [t >= 1] only moves with the snippets
         applied after this one; [t <= 0] lands where a host target would. *)
      let rebase t = if t >= 1 then t + p + !later else host (t + p) in
      Array.iteri (fun j instr -> out.(!pos + j) <- Instr.relocate instr ~f:rebase) s;
      pos := !pos + Array.length s;
      later := !later + Array.length s;
      decr i
    done;
    if p < n then begin
      out.(!pos) <- Instr.relocate code.(p) ~f:host;
      incr pos
    end
  done;
  { f with Program.code = out }

let insert f ~at code = insert_many f [ (at, code) ]

let append_raw (f : Program.func) code =
  { f with Program.code = Array.append f.Program.code (Array.of_list code) }

let with_locals (f : Program.func) n = { f with Program.nlocals = max f.Program.nlocals n }

let fresh_local (f : Program.func) =
  let slot = f.Program.nlocals in
  (slot, with_locals f (slot + 1))

let expand (f : Program.func) ~f:g =
  let code = f.Program.code in
  let n = Array.length code in
  let expansions = Array.mapi (fun pc i -> match g pc i with None -> [ i ] | Some l -> l) code in
  let new_start = Array.make (n + 1) 0 in
  let total = ref 0 in
  Array.iteri
    (fun pc l ->
      new_start.(pc) <- !total;
      total := !total + List.length l)
    expansions;
  new_start.(n) <- !total;
  let out = Array.make !total Instr.Nop in
  Array.iteri
    (fun pc l -> List.iteri (fun k i -> out.(new_start.(pc) + k) <- i) l)
    expansions;
  let remap t =
    if t < 0 || t > n then invalid_arg "Rewrite.expand: target out of range" else new_start.(t)
  in
  { f with Program.code = Array.map (fun i -> Instr.relocate i ~f:remap) out }

let blocks (f : Program.func) =
  let starts = Program.block_starts f in
  let n = Array.length f.Program.code in
  let leaders = ref [] in
  for pc = n - 1 downto 0 do
    if starts.(pc) then leaders := pc :: !leaders
  done;
  let rec sizes = function
    | [] -> []
    | [ leader ] -> [ (leader, n - leader) ]
    | leader :: (next :: _ as rest) -> (leader, next - leader) :: sizes rest
  in
  sizes !leaders

let reorder_blocks (f : Program.func) ~order =
  let blks = Array.of_list (blocks f) in
  let nb = Array.length blks in
  if List.length order <> nb || List.sort compare order <> List.init nb Fun.id then
    invalid_arg "Rewrite.reorder_blocks: order is not a permutation";
  (match order with
  | 0 :: _ -> ()
  | _ -> invalid_arg "Rewrite.reorder_blocks: entry block must stay first");
  let code = f.Program.code in
  let n = Array.length code in
  (* First pass: lay the blocks out in the new order, keeping old-coordinate
     targets, and add explicit jumps where fall-through is broken. *)
  let new_code = ref [] in
  let new_pos_of_leader = Hashtbl.create 16 in
  let emitted = ref 0 in
  let emit instr =
    new_code := instr :: !new_code;
    incr emitted
  in
  List.iter
    (fun bidx ->
      let leader, len = blks.(bidx) in
      Hashtbl.replace new_pos_of_leader leader !emitted;
      for pc = leader to leader + len - 1 do
        emit code.(pc)
      done;
      let last = code.(leader + len - 1) in
      if Instr.falls_through last then begin
        let old_next = leader + len in
        assert (old_next < n);
        (* Encode the old-coordinate target; fixed up in the second pass. *)
        emit (Instr.Jump old_next)
      end)
    order;
  let laid_out = Array.of_list (List.rev !new_code) in
  (* Second pass: every target is an old block leader; map it. *)
  let remap t =
    match Hashtbl.find_opt new_pos_of_leader t with
    | Some p -> p
    | None -> invalid_arg "Rewrite.reorder_blocks: branch target is not a block leader"
  in
  { f with Program.code = Array.map (fun i -> Instr.relocate i ~f:remap) laid_out }
