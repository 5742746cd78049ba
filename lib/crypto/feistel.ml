type t = {
  block_bits : int;
  half_bits : int;
  half_mask : int;
  round_keys : int array;
      (* one half-width key per round, with the round constant [i * 0x9E3779B9]
         already folded in and masked to the half width *)
  pair_keys : int array;  (* each round key at bits 0 and 32, for {!decrypt_many} *)
}

let default_block_bits = 62

let create ?(rounds = 32) ?(block_bits = default_block_bits) ~key () =
  if block_bits < 4 || block_bits > 62 || block_bits mod 2 <> 0 then
    invalid_arg "Feistel.create: block_bits must be even and within [4, 62]";
  if rounds < 2 then invalid_arg "Feistel.create: at least 2 rounds";
  let half_bits = block_bits / 2 in
  let half_mask = (1 lsl half_bits) - 1 in
  let rng = Util.Prng.create key in
  let round_keys =
    Array.init rounds (fun i -> (Util.Prng.bits rng half_bits lxor (i * 0x9E3779B9)) land half_mask)
  in
  let pair_keys = Array.map (fun k -> k lor (k lsl 32)) round_keys in
  { block_bits; half_bits; half_mask; round_keys; pair_keys }

let of_passphrase ?rounds ?block_bits passphrase =
  (* FNV-1a over the passphrase bytes, folded into a 64-bit seed. *)
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    passphrase;
  create ?rounds ?block_bits ~key:!h ()

let block_bits t = t.block_bits

(* XTEA-flavoured round function on a half-width word. Any function works
   for invertibility; this one diffuses well at small widths. *)
let[@inline] round_f m r key = ((((r lsl 4) lxor (r lsr 5)) + r) lxor key) land m

let check_range t v =
  if v < 0 || (t.block_bits < 62 && v lsr t.block_bits <> 0) then
    invalid_arg "Feistel: value out of block range"

let encrypt t v =
  check_range t v;
  let m = t.half_mask and keys = t.round_keys in
  let l = ref (v lsr t.half_bits) and r = ref (v land m) in
  for i = 0 to Array.length keys - 1 do
    let r' = !l lxor round_f m !r (Array.unsafe_get keys i) in
    l := !r;
    r := r'
  done;
  (!l lsl t.half_bits) lor !r

let decrypt_unchecked t v =
  let m = t.half_mask and keys = t.round_keys in
  let l = ref (v lsr t.half_bits) and r = ref (v land m) in
  for i = Array.length keys - 1 downto 0 do
    let l' = !r lxor round_f m !l (Array.unsafe_get keys i) in
    r := !l;
    l := l'
  done;
  (!l lsl t.half_bits) lor !r

let decrypt t v =
  check_range t v;
  decrypt_unchecked t v

(* Eight blocks per round loop, two to an int.  A half-block has at most
   31 bits, so two blocks' halves share one word, at bits 0 and 32, and
   every operation of the round function acts on both at once, provided no
   bit crosses from one half into the other: each shift's operand is
   masked first, [lsl 4] to the bits that stay below the half's top and
   [lsr 5] clear of the high half's lowest five bits, which would enter
   the low half; the addition's carry out of the low half lands in bit 31
   (or lower), which is clear, and the final mask drops it.  Every bit the
   masks remove is one the scalar round function also shifts out or masks
   off, so each half computes {!round_f} exactly.

   One block's rounds form a single dependency chain, so four words —
   eight blocks — interleave four chains and keep the ALUs busy.  The
   round state lives in the loop's arguments, which a [for] loop over refs
   would spill to the stack every round, and each call runs two rounds (a
   decryption round maps [(l, r)] to [(r xor f l, l)]), halving the calls;
   an odd round count ends with one single round.  All eight inputs are
   read before any output is written, so [src] may be [dst]. *)
let decrypt_many t src dst n =
  if n < 0 || n > Array.length src || n > Array.length dst then invalid_arg "Feistel.decrypt_many";
  let m = t.half_mask and keys = t.pair_keys and h = t.half_bits in
  let m2 = m lor (m lsl 32) in
  let shl_mask = (1 lsl max 0 (h - 4)) - 1 in
  let shl_mask = shl_mask lor (shl_mask lsl 32) in
  let shr_mask = m2 land lnot (0x1F lsl 32) in
  let[@inline] f2 x k =
    (((((x land shl_mask) lsl 4) lxor ((x land shr_mask) lsr 5)) + x) lxor k) land m2
  in
  let[@inline] out base l r =
    Array.unsafe_set dst base (((l land m) lsl h) lor (r land m));
    Array.unsafe_set dst (base + 1) (((l lsr 32) lsl h) lor (r lsr 32))
  in
  let octets = n land lnot 7 in
  let j = ref 0 in
  while !j < octets do
    let base = !j in
    let rec rounds i l0 r0 l1 r1 l2 r2 l3 r3 =
      if i >= 1 then begin
        let k = Array.unsafe_get keys i in
        let a0 = r0 lxor f2 l0 k and a1 = r1 lxor f2 l1 k in
        let a2 = r2 lxor f2 l2 k and a3 = r3 lxor f2 l3 k in
        let k = Array.unsafe_get keys (i - 1) in
        rounds (i - 2) (l0 lxor f2 a0 k) a0 (l1 lxor f2 a1 k) a1 (l2 lxor f2 a2 k) a2
          (l3 lxor f2 a3 k) a3
      end
      else if i = 0 then begin
        let k = Array.unsafe_get keys 0 in
        rounds (-1) (r0 lxor f2 l0 k) l0 (r1 lxor f2 l1 k) l1 (r2 lxor f2 l2 k) l2
          (r3 lxor f2 l3 k) l3
      end
      else begin
        out base l0 r0;
        out (base + 2) l1 r1;
        out (base + 4) l2 r2;
        out (base + 6) l3 r3
      end
    in
    let[@inline] hi a b = (a lsr h) lor ((b lsr h) lsl 32) in
    let[@inline] lo a b = (a land m) lor ((b land m) lsl 32) in
    let v0 = Array.unsafe_get src base and v1 = Array.unsafe_get src (base + 1) in
    let v2 = Array.unsafe_get src (base + 2) and v3 = Array.unsafe_get src (base + 3) in
    let v4 = Array.unsafe_get src (base + 4) and v5 = Array.unsafe_get src (base + 5) in
    let v6 = Array.unsafe_get src (base + 6) and v7 = Array.unsafe_get src (base + 7) in
    rounds
      (Array.length keys - 1)
      (hi v0 v1) (lo v0 v1) (hi v2 v3) (lo v2 v3) (hi v4 v5) (lo v4 v5) (hi v6 v7) (lo v6 v7);
    j := base + 8
  done;
  for i = octets to n - 1 do
    Array.unsafe_set dst i (decrypt_unchecked t (Array.unsafe_get src i))
  done
