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

(* A pushed bit is only stored, packed eight to a byte.  A flush — a full
   buffer, or any read of the results — runs each lane in turn over every
   buffered bit, then empties the buffer; the lanes' chains, the memo and
   the dedup state stay, so the buffer's edges are invisible.

   In a lane's pass each completed window is looked up in the memo at
   once: a hit whose plaintext is known to lie past the enumeration range
   can never be a statement and is dropped there.  The rest queue, in
   position order, in a fixed chunk: misses, which claim their memo slot
   at once so that a repeat shares the decrypt, hits on a slot a pending
   miss claimed, and hits that decode.  A full chunk, and the end of the
   pass, drains it: the misses are decrypted together with the eight-wide
   {!Crypto.Feistel.decrypt_many}, and the queue is unenumerated and
   deduped in position order, so the statements are those of decrypting
   one window at a time. *)
let chunk = 1024

(* the most bits the buffer holds: 8 KiB, which stays in the first-level
   cache while each lane reads it in turn.  It starts empty and doubles up
   to this, so a short trace only allocates what it uses. *)
let buffer_bits = 1 lsl 16

type t = {
  params : Params.t;
  dedup_overlaps : bool;
  top : int;  (* [w - 1]: the bit a new trace bit enters a window at *)
  lanes : lane array;
  memo : int array;  (* slot [s]: its block at [2s], that block's plaintext at [2s + 1] *)
  mutable buf : Bytes.t;  (* buffered bits, least-significant first in each byte *)
  mutable buffered : int;
  mutable flushed : int;  (* bits harvested by earlier flushes: the position of the buffer's first *)
  queued_pos : int array;
  plain : int array;  (* per queued window: its plaintext, or [-1 - k] for miss [k] *)
  misses : int array;
  missed_plain : int array;
  mutable queued : int;
  mutable nmiss : int;
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
    memo = Array.make (2 lsl memo_bits) (-1);
    buf = Bytes.empty;
    buffered = 0;
    flushed = 0;
    queued_pos = Array.make chunk 0;
    plain = Array.make chunk 0;
    misses = Array.make chunk 0;
    missed_plain = Array.make chunk 0;
    queued = 0;
    nmiss = 0;
    count = 0;
  }

(* the index of a block's slot in [memo] *)
let[@inline] memo_slot block = ((block * 0x2545F4914F6CDD1D) lsr (63 - memo_bits)) lsl 1

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

let drain t lane =
  let n = t.queued and nmiss = t.nmiss in
  t.queued <- 0;
  t.nmiss <- 0;
  Crypto.Feistel.decrypt_many t.params.cipher t.misses t.missed_plain nmiss;
  (* a slot's later claimers come later in the batch, so the last write
     leaves it its own block's plaintext *)
  let memo = t.memo in
  for k = 0 to nmiss - 1 do
    Array.unsafe_set memo (memo_slot (Array.unsafe_get t.misses k) + 1) (Array.unsafe_get t.missed_plain k)
  done;
  let total = t.params.enumeration_total in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get t.plain i in
    let v = if v < 0 then Array.unsafe_get t.missed_plain (-1 - v) else v in
    if v < total then
      match Statement.unenumerate t.params v with
      | Some s -> record t lane (Array.unsafe_get t.queued_pos i) v s
      | None -> ()
  done

(* One lane over every buffered bit: roll the bit into its chain, and
   look the window it completes up, queueing it unless it is a hit that
   cannot decode. *)
let pass t lane =
  let buf = t.buf and memo = t.memo and chains = lane.chains in
  let top = t.top and stride = lane.stride and total = t.params.enumeration_total in
  (* the window the buffer's first bit completes starts here *)
  let first = t.flushed - (top * stride) in
  let chain = ref lane.chain in
  for i = 0 to t.buffered - 1 do
    let bit = (Char.code (Bytes.unsafe_get buf (i lsr 3)) lsr (i land 7)) land 1 in
    let c = !chain in
    let block = (Array.unsafe_get chains c lsr 1) lor (bit lsl top) in
    Array.unsafe_set chains c block;
    chain := if c + 1 = stride then 0 else c + 1;
    let pos = first + i in
    if pos >= 0 then begin
      let slot = memo_slot block in
      let v =
        if Array.unsafe_get memo slot = block then Array.unsafe_get memo (slot + 1)
        else begin
          (* a miss claims the slot, pointing at its place in the miss batch *)
          let m = t.nmiss in
          Array.unsafe_set t.misses m block;
          Array.unsafe_set memo slot block;
          Array.unsafe_set memo (slot + 1) (-1 - m);
          t.nmiss <- m + 1;
          -1 - m
        end
      in
      if v < total then begin
        let q = t.queued in
        Array.unsafe_set t.queued_pos q pos;
        Array.unsafe_set t.plain q v;
        t.queued <- q + 1;
        if q + 1 = chunk then drain t lane
      end
    end
  done;
  lane.chain <- !chain;
  drain t lane

let flush t =
  if t.buffered > 0 then begin
    Array.iter (pass t) t.lanes;
    t.flushed <- t.flushed + t.buffered;
    t.buffered <- 0
  end

(* a full buffer doubles, or at its cap is flushed *)
let make_room t =
  let bytes = Bytes.length t.buf in
  if bytes * 8 >= buffer_bits then flush t
  else begin
    let grown = Bytes.create (max 512 (2 * bytes)) in
    Bytes.blit t.buf 0 grown 0 bytes;
    t.buf <- grown
  end

let push t bit =
  if t.buffered = Bytes.length t.buf * 8 then make_room t;
  let i = t.buffered in
  let k = i lsr 3 and s = i land 7 in
  (* a byte's first bit overwrites what an earlier fill left there *)
  let old = if s = 0 then 0 else Char.code (Bytes.unsafe_get t.buf k) in
  Bytes.unsafe_set t.buf k (Char.unsafe_chr (old lor (Bool.to_int bit lsl s)));
  t.buffered <- i + 1

let length t = t.flushed + t.buffered

let count t =
  flush t;
  t.count

(* The batch order: every hit of the first stride in position order, then
   the next stride's — consed, so reversed: last lane first, newest first. *)
let statements t =
  flush t;
  Array.fold_left (fun acc lane -> lane.found @ acc) [] t.lanes
