type t = {
  primes : int array;
  cipher : Crypto.Feistel.t;
  block_bits : int;
  pair_offsets : int array;
  enumeration_total : int;
}

let seed_of_passphrase passphrase =
  let h = ref 0x811C9DC5A2B39F17L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    passphrase;
  !h

(* Pairs are enumerated lexicographically: (0,1), (0,2), ..., (0,r-1),
   (1,2), ...; each pair owns a contiguous range of size p_i*p_j.  The
   table holds each range's start, then the total. *)
let pair_offsets primes =
  let r = Array.length primes in
  let offsets = Array.make ((r * (r - 1) / 2) + 1) 0 in
  let k = ref 0 in
  for i = 0 to r - 1 do
    for j = i + 1 to r - 1 do
      let pair = primes.(i) * primes.(j) in
      if offsets.(!k) > max_int - pair then invalid_arg "Params: enumeration range overflows int";
      offsets.(!k + 1) <- offsets.(!k) + pair;
      incr k
    done
  done;
  offsets

let make ?(prime_bits = 25) ?(block_bits = Crypto.Feistel.default_block_bits) ~passphrase ~watermark_bits () =
  if watermark_bits < 1 then invalid_arg "Params.make: watermark_bits must be positive";
  if prime_bits < 8 || prime_bits > 30 then invalid_arg "Params.make: prime_bits out of [8, 30]";
  (* Primes of exactly [prime_bits] bits are at least 2^(prime_bits-1), so r
     primes give a capacity of at least 2^(r*(prime_bits-1)). *)
  let r = (watermark_bits + prime_bits - 2) / (prime_bits - 1) in
  let r = max r 2 in
  let rng = Util.Prng.create (seed_of_passphrase passphrase) in
  let primes = Array.of_list (Numtheory.Ints.coprime_moduli ~rng ~bits:prime_bits ~count:r) in
  let pair_offsets = pair_offsets primes in
  let enumeration_total = pair_offsets.(Array.length pair_offsets - 1) in
  if block_bits < 62 && enumeration_total lsr block_bits <> 0 then
    invalid_arg "Params.make: piece enumeration does not fit the cipher block";
  let cipher = Crypto.Feistel.of_passphrase ~block_bits (passphrase ^ "|piece-cipher") in
  { primes; cipher; block_bits; pair_offsets; enumeration_total }

let r t = Array.length t.primes

let pair_count t =
  let n = r t in
  n * (n - 1) / 2

let capacity t = Array.fold_left (fun acc p -> Bignum.mul acc (Bignum.of_int p)) Bignum.one t.primes

(* largest n such that 2^n <= cap: one below cap's bit length *)
let max_watermark_bits t = Bignum.num_bits (capacity t) - 1

let fits t w = Bignum.sign w >= 0 && Bignum.compare w (capacity t) < 0
