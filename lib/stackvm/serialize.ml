(* Format: header "SVM1", varint nglobals, varint nfuncs, then per function:
   name (varint length + bytes), varints nargs/nlocals/ncode, instructions
   (opcode byte + operands); finally the main name. Signed operands use
   zigzag encoding. *)

module V = Util.Varint

(* Full-width signed encoding: zigzag in Int64 so values near the 63-bit
   extremes (e.g. 62-bit loop constants) do not overflow the shift. *)
let zigzag v =
  let v64 = Int64.of_int v in
  Int64.logxor (Int64.shift_left v64 1) (Int64.shift_right v64 63)

let add_zigzag buf v =
  let rec go z =
    if Int64.unsigned_compare z 0x80L < 0 then Buffer.add_char buf (Char.chr (Int64.to_int z))
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (Int64.to_int (Int64.logand z 0x7FL))));
      go (Int64.shift_right_logical z 7)
    end
  in
  go (zigzag v)

let read_zigzag r =
  let rec go shift acc =
    if shift > 63 then raise (V.Malformed "varint overflow");
    let b = V.byte r in
    let acc = Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7F)) shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  let z = go 0 0L in
  Int64.to_int (Int64.logxor (Int64.shift_right_logical z 1) (Int64.neg (Int64.logand z 1L)))

let opcode : Instr.t -> int = function
  | Const _ -> 0
  | Load _ -> 1
  | Store _ -> 2
  | Get_global _ -> 3
  | Set_global _ -> 4
  | Binop Add -> 5
  | Binop Sub -> 6
  | Binop Mul -> 7
  | Binop Div -> 8
  | Binop Rem -> 9
  | Binop And -> 10
  | Binop Or -> 11
  | Binop Xor -> 12
  | Binop Shl -> 13
  | Binop Shr -> 14
  | Neg -> 15
  | Not -> 16
  | Cmp Eq -> 17
  | Cmp Ne -> 18
  | Cmp Lt -> 19
  | Cmp Le -> 20
  | Cmp Gt -> 21
  | Cmp Ge -> 22
  | Dup -> 23
  | Pop -> 24
  | Swap -> 25
  | New_array -> 26
  | Array_load -> 27
  | Array_store -> 28
  | Array_len -> 29
  | Jump _ -> 30
  | If { sense = true; _ } -> 31
  | If { sense = false; _ } -> 32
  | Call _ -> 33
  | Ret -> 34
  | Print -> 35
  | Read -> 36
  | Nop -> 37

let encode_instr buf (i : Instr.t) =
  Buffer.add_char buf (Char.chr (opcode i));
  match i with
  | Const n -> add_zigzag buf n
  | Load n | Store n | Get_global n | Set_global n -> V.add buf n
  | Jump t | If { target = t; _ } -> V.add buf t
  | Call name -> V.add_string buf name
  | _ -> ()

let decode_instr r : Instr.t =
  match V.byte r with
  | 0 -> Const (read_zigzag r)
  | 1 -> Load (V.varint r)
  | 2 -> Store (V.varint r)
  | 3 -> Get_global (V.varint r)
  | 4 -> Set_global (V.varint r)
  | 5 -> Binop Add
  | 6 -> Binop Sub
  | 7 -> Binop Mul
  | 8 -> Binop Div
  | 9 -> Binop Rem
  | 10 -> Binop And
  | 11 -> Binop Or
  | 12 -> Binop Xor
  | 13 -> Binop Shl
  | 14 -> Binop Shr
  | 15 -> Neg
  | 16 -> Not
  | 17 -> Cmp Eq
  | 18 -> Cmp Ne
  | 19 -> Cmp Lt
  | 20 -> Cmp Le
  | 21 -> Cmp Gt
  | 22 -> Cmp Ge
  | 23 -> Dup
  | 24 -> Pop
  | 25 -> Swap
  | 26 -> New_array
  | 27 -> Array_load
  | 28 -> Array_store
  | 29 -> Array_len
  | 30 -> Jump (V.varint r)
  | 31 -> If { sense = true; target = V.varint r }
  | 32 -> If { sense = false; target = V.varint r }
  | 33 -> Call (V.string r)
  | 34 -> Ret
  | 35 -> Print
  | 36 -> Read
  | 37 -> Nop
  | op -> raise (V.Malformed (Printf.sprintf "bad opcode %d" op))

let encode (p : Program.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "SVM1";
  V.add buf p.nglobals;
  V.add buf (Array.length p.funcs);
  Array.iter
    (fun (f : Program.func) ->
      V.add_string buf f.name;
      V.add buf f.nargs;
      V.add buf f.nlocals;
      V.add buf (Array.length f.code);
      Array.iter (encode_instr buf) f.code)
    p.funcs;
  V.add_string buf p.main;
  Buffer.contents buf

let decode data =
  if String.length data < 4 || String.sub data 0 4 <> "SVM1" then failwith "Serialize.decode: bad magic";
  let r = V.reader ~pos:4 data in
  let malformed reason = failwith ("Serialize.decode: " ^ reason) in
  try
    let nglobals = V.varint r in
    let nfuncs = V.varint r in
    (* Bound declared counts by the bytes that remain: a corrupt count must
       fail as malformed input, not as an attempted multi-gigabyte
       allocation.  A function costs at least 4 bytes, an instruction at
       least 1. *)
    if nfuncs > V.remaining r / 4 then malformed "function count exceeds input";
    (* Decode sequentially: List.init/Array.init do not guarantee order. *)
    let funcs = ref [] in
    for _ = 1 to nfuncs do
      let name = V.string r in
      let nargs = V.varint r in
      let nlocals = V.varint r in
      let ncode = V.varint r in
      if ncode > V.remaining r then malformed "code length exceeds input";
      let code = Array.make ncode Instr.Nop in
      for i = 0 to ncode - 1 do
        code.(i) <- decode_instr r
      done;
      funcs := { Program.name; nargs; nlocals; code } :: !funcs
    done;
    let funcs = List.rev !funcs in
    let main = V.string r in
    { Program.funcs = Array.of_list funcs; nglobals; main }
  with V.Malformed reason -> malformed reason

let decode_opt data = match decode data with p -> Some p | exception Failure _ -> None

(* The byte counts [encode] would write, without writing them. *)
let zigzag_size v =
  let rec go n z = if Int64.unsigned_compare z 0x80L < 0 then n else go (n + 1) (Int64.shift_right_logical z 7) in
  go 1 (zigzag v)

let string_size s = V.size (String.length s) + String.length s

let instr_size (i : Instr.t) =
  1
  +
  match i with
  | Const n -> zigzag_size n
  | Load n | Store n | Get_global n | Set_global n -> V.size n
  | Jump t | If { target = t; _ } -> V.size t
  | Call name -> string_size name
  (* Listed, not wildcarded: an instruction given an operand must not
     compile until its size is counted here. *)
  | Binop _ | Neg | Not | Cmp _ | Dup | Pop | Swap | New_array | Array_load | Array_store | Array_len | Ret | Print
  | Read | Nop ->
      0

let size_in_bytes (p : Program.t) =
  Array.fold_left
    (fun acc (f : Program.func) ->
      acc + string_size f.name + V.size f.nargs + V.size f.nlocals
      + V.size (Array.length f.code)
      + Array.fold_left (fun acc i -> acc + instr_size i) 0 f.code)
    (4 + V.size p.nglobals + V.size (Array.length p.funcs) + string_size p.main)
    p.funcs
