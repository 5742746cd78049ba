(* One lane per requested stride.  Window [pos] at stride [s] packs bits
   [pos], [pos+s], ..., [pos+(w-1)s], least-significant first, so the bits
   at positions congruent mod [s] form a chain, and each new bit completes
   exactly one window: the one ending at it, on its chain.  Rolling that
   chain's window right by one and setting the top bit keeps it a
   [w]-bit value, in the cipher's block range by construction. *)
type lane = {
  stride : int;
  span : int;  (* [w * stride]: windows closer than this overlap *)
  chains : int array;  (* the latest window of each chain *)
  mutable chain : int;  (* the chain the next bit extends *)
  last_seen : (int, int) Hashtbl.t;  (* enumeration index -> its latest position *)
  mutable found : Statement.t list;  (* newest first *)
}

(* Windows are not decrypted as they complete: they queue, in push order,
   in a fixed chunk, and a full chunk — or any read of the results —
   flushes it.  A flush looks every queued window up in the memo, decrypts
   the misses together with the four-wide {!Crypto.Feistel.decrypt_many},
   then unenumerates and dedups in the queued (position, lane) order, so
   the statements are those of decrypting one window at a time. *)
let chunk = 1024

type t = {
  params : Params.t;
  dedup_overlaps : bool;
  top : int;  (* [w - 1]: the bit a new trace bit enters a window at *)
  lanes : lane array;
  memo_blocks : int array;
  memo_plain : int array;
  queued_blocks : int array;
  queued_pos : int array;
  queued_lane : int array;
  plain : int array;  (* per queued window: its plaintext, or [-1 - k] for miss [k] *)
  misses : int array;
  missed_plain : int array;
  mutable queued : int;
  mutable nbits : int;
  mutable count : int;
}

(* Hot loops repeat their branch patterns, so the same window recurs: over
   the 54 corpus traces (18 VM workloads, unmarked and jwm-marked) 67% of
   windows hit a 2^14-entry direct-mapped memo of block -> plaintext, each
   hit saving a full decrypt.  22% of windows are first occurrences, so a
   larger memo could only win back the other 11%; 2^16 measured no
   faster. *)
let memo_bits = 14

let create ?(dedup_overlaps = true) (params : Params.t) ~strides =
  let width = params.block_bits in
  let lane stride =
    if stride < 1 then invalid_arg "Harvester.create: stride";
    {
      stride;
      span = width * stride;
      chains = Array.make stride 0;
      chain = 0;
      last_seen = Hashtbl.create 64;
      found = [];
    }
  in
  {
    params;
    dedup_overlaps;
    top = width - 1;
    lanes = Array.of_list (List.map lane strides);
    (* -1 is never a block, so an empty slot never hits *)
    memo_blocks = Array.make (1 lsl memo_bits) (-1);
    memo_plain = Array.make (1 lsl memo_bits) 0;
    queued_blocks = Array.make chunk 0;
    queued_pos = Array.make chunk 0;
    queued_lane = Array.make chunk 0;
    plain = Array.make chunk 0;
    misses = Array.make chunk 0;
    missed_plain = Array.make chunk 0;
    queued = 0;
    nbits = 0;
    count = 0;
  }

let[@inline] memo_slot block = (block * 0x2545F4914F6CDD1D) lsr (63 - memo_bits)

(* Overlapping identical windows are one observation, not many: a long
   constant-bit run (e.g. a hot loop's branch) yields the same garbage
   block at hundreds of consecutive positions, which would otherwise swamp
   the residue vote.  A window only counts when it does not overlap the
   previous occurrence of the same statement on its lane. *)
let record t lane pos v s =
  let fresh =
    (not t.dedup_overlaps)
    ||
    match Hashtbl.find_opt lane.last_seen v with
    | Some prev -> pos - prev >= lane.span
    | None -> true
  in
  if t.dedup_overlaps then Hashtbl.replace lane.last_seen v pos;
  if fresh then begin
    lane.found <- s :: lane.found;
    t.count <- t.count + 1
  end

let flush t =
  let n = t.queued in
  t.queued <- 0;
  let blocks = t.memo_blocks and memo = t.memo_plain in
  (* a miss claims its memo slot at once, pointing at its place in the
     miss batch, so a repeat later in the chunk shares its decrypt *)
  let nmiss = ref 0 in
  for i = 0 to n - 1 do
    let block = Array.unsafe_get t.queued_blocks i in
    let slot = memo_slot block in
    if Array.unsafe_get blocks slot = block then
      Array.unsafe_set t.plain i (Array.unsafe_get memo slot)
    else begin
      let k = !nmiss in
      Array.unsafe_set t.misses k block;
      Array.unsafe_set t.plain i (-1 - k);
      Array.unsafe_set blocks slot block;
      Array.unsafe_set memo slot (-1 - k);
      nmiss := k + 1
    end
  done;
  Crypto.Feistel.decrypt_many t.params.cipher t.misses t.missed_plain !nmiss;
  (* a slot's later claimers come later in the batch, so the last write
     leaves it its own block's plaintext *)
  for k = 0 to !nmiss - 1 do
    let slot = memo_slot (Array.unsafe_get t.misses k) in
    Array.unsafe_set memo slot (Array.unsafe_get t.missed_plain k)
  done;
  let total = t.params.enumeration_total in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get t.plain i in
    let v = if v < 0 then Array.unsafe_get t.missed_plain (-1 - v) else v in
    if v < total then
      match Statement.unenumerate t.params v with
      | Some s ->
          let lane = Array.unsafe_get t.lanes (Array.unsafe_get t.queued_lane i) in
          record t lane (Array.unsafe_get t.queued_pos i) v s
      | None -> ()
  done

let push t bit =
  let n = t.nbits in
  t.nbits <- n + 1;
  let b = if bit then 1 lsl t.top else 0 in
  for k = 0 to Array.length t.lanes - 1 do
    let lane = Array.unsafe_get t.lanes k in
    let c = lane.chain in
    let block = (Array.unsafe_get lane.chains c lsr 1) lor b in
    Array.unsafe_set lane.chains c block;
    lane.chain <- (if c + 1 = lane.stride then 0 else c + 1);
    let pos = n - (t.top * lane.stride) in
    if pos >= 0 then begin
      if t.queued = chunk then flush t;
      let q = t.queued in
      Array.unsafe_set t.queued_blocks q block;
      Array.unsafe_set t.queued_pos q pos;
      Array.unsafe_set t.queued_lane q k;
      t.queued <- q + 1
    end
  done

let length t = t.nbits

let count t =
  flush t;
  t.count

(* The batch order: every hit of the first stride in position order, then
   the next stride's — consed, so reversed: last lane first, newest first. *)
let statements t =
  flush t;
  Array.fold_left (fun acc lane -> lane.found @ acc) [] t.lanes
