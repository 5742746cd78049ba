type t = { i : int; j : int; x : int }

let compare a b = Stdlib.compare (a.i, a.j, a.x) (b.i, b.j, b.x)
let equal a b = compare a b = 0
let pp fmt { i; j; x } = Format.fprintf fmt "W = %d (mod p%d*p%d)" x i j

let check_pair (params : Params.t) i j =
  let r = Array.length params.primes in
  if i < 0 || j <= i || j >= r then invalid_arg "Statement: bad prime pair"

let modulus (params : Params.t) s =
  check_pair params s.i s.j;
  params.primes.(s.i) * params.primes.(s.j)

let of_watermark params w ~pair:(i, j) =
  check_pair params i j;
  if not (Params.fits params w) then invalid_arg "Statement.of_watermark: watermark out of range";
  let m = params.primes.(i) * params.primes.(j) in
  let x = Bignum.to_int (Bignum.erem w (Bignum.of_int m)) in
  { i; j; x }

let all_of_watermark params w =
  let r = Params.r params in
  let acc = ref [] in
  for i = r - 1 downto 0 do
    for j = r - 1 downto i + 1 do
      acc := of_watermark params w ~pair:(i, j) :: !acc
    done
  done;
  !acc

let to_congruence params s = Numtheory.Gcrt.make_int ~residue:s.x ~modulus:(modulus params s)

(* Index of pair (i, j) in the lexicographic pair enumeration (see
   {!Params.t.pair_offsets}): rows 0 .. i-1 hold r-1, r-2, ..., r-i pairs. *)
let pair_index r i j = (i * ((2 * r) - i - 1) / 2) + (j - i - 1)

let enumerate (params : Params.t) s =
  check_pair params s.i s.j;
  let m = modulus params s in
  if s.x < 0 || s.x >= m then invalid_arg "Statement.enumerate: residue out of range";
  params.pair_offsets.(pair_index (Array.length params.primes) s.i s.j) + s.x

(* Binary-search the pair whose range holds [v], then walk the rows to
   name the pair. *)
let unenumerate (params : Params.t) v =
  if v < 0 || v >= params.enumeration_total then None
  else begin
    let offsets = params.pair_offsets in
    let lo = ref 0 and hi = ref (Array.length offsets - 2) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if offsets.(mid) <= v then lo := mid else hi := mid - 1
    done;
    let k = !lo in
    let i = ref 0 and row = ref (Array.length params.primes - 1) and first = ref 0 in
    while k >= !first + !row do
      first := !first + !row;
      incr i;
      decr row
    done;
    Some { i = !i; j = !i + 1 + (k - !first); x = v - offsets.(k) }
  end

let encode params s = Crypto.Feistel.encrypt params.Params.cipher (enumerate params s)

let decode (params : Params.t) block =
  if block < 0 || (params.block_bits < 62 && block lsr params.block_bits <> 0) then None
  else unenumerate params (Crypto.Feistel.decrypt_unchecked params.cipher block)

let bits params s =
  let encoded = encode params s in
  List.init params.Params.block_bits (fun k -> (encoded lsr k) land 1 = 1)

let shared_primes a b =
  List.filter_map
    (fun (pa, pb) -> if pa = pb then Some pa else None)
    [ (a.i, b.i); (a.i, b.j); (a.j, b.i); (a.j, b.j) ]

let consistent (params : Params.t) a b =
  if a.i = b.i && a.j = b.j then a.x = b.x
  else
    List.for_all
      (fun idx -> a.x mod params.primes.(idx) = b.x mod params.primes.(idx))
      (shared_primes a b)

let agreeing_prime (params : Params.t) a b =
  if equal a b then None
  else
    List.find_opt
      (fun idx -> a.x mod params.primes.(idx) = b.x mod params.primes.(idx))
      (shared_primes a b)
