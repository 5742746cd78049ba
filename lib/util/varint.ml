let add buf v =
  if v < 0 then invalid_arg "Varint.add: negative";
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.unsafe_chr v)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (0x80 lor (v land 0x7F)));
      go (v lsr 7)
    end
  in
  go v

let add_string buf s =
  add buf (String.length s);
  Buffer.add_string buf s

let size v =
  if v < 0 then invalid_arg "Varint.size: negative";
  let rec go n v = if v < 0x80 then n else go (n + 1) (v lsr 7) in
  go 1 v

exception Malformed of string

type reader = { data : string; mutable pos : int }

let reader ?(pos = 0) data = { data; pos }
let pos r = r.pos
let remaining r = String.length r.data - r.pos

let byte r =
  let p = r.pos in
  if p >= String.length r.data then raise (Malformed "truncated");
  r.pos <- p + 1;
  Char.code (String.unsafe_get r.data p)

(* Nine bytes carry 63 bits, the width of an OCaml int: a tenth byte is
   overflow, and a value reaching bit 62 reads as negative.  No encoder
   writes either. *)
let varint r =
  let rec go shift acc =
    if shift > 62 then raise (Malformed "varint overflow");
    let b = byte r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc
    else if acc < 0 then raise (Malformed "negative varint")
    else acc
  in
  go 0 0

let string r =
  let n = varint r in
  if n > remaining r then raise (Malformed "truncated string");
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s
