type t = {
  block_bits : int;
  half_bits : int;
  half_mask : int;
  round_keys : int array;
      (* one half-width key per round, with the round constant [i * 0x9E3779B9]
         already folded in and masked to the half width *)
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
  { block_bits; half_bits; half_mask; round_keys }

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
