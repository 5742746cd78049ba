(* Format: header "SVM1", varint nglobals, varint nfuncs, then per function:
   name (varint length + bytes), varints nargs/nlocals/ncode, instructions
   (opcode byte + operands); finally the main name. Signed operands use
   zigzag encoding. *)

let add_varint buf v =
  if v < 0 then invalid_arg "Serialize.add_varint: negative";
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7F)));
      go (v lsr 7)
    end
  in
  go v

(* Full-width signed encoding: zigzag in Int64 so values near the 63-bit
   extremes (e.g. 62-bit loop constants) do not overflow the shift. *)
let add_zigzag buf v =
  let v64 = Int64.of_int v in
  let z = Int64.logxor (Int64.shift_left v64 1) (Int64.shift_right v64 63) in
  let rec go z =
    if Int64.unsigned_compare z 0x80L < 0 then Buffer.add_char buf (Char.chr (Int64.to_int z))
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (Int64.to_int (Int64.logand z 0x7FL))));
      go (Int64.shift_right_logical z 7)
    end
  in
  go z

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

type reader = { data : string; mutable pos : int }

let read_byte r =
  if r.pos >= String.length r.data then failwith "Serialize.decode: truncated";
  let b = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  b

let read_varint r =
  let rec go shift acc =
    if shift > 62 then failwith "Serialize.decode: varint overflow";
    let b = read_byte r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  (* The encoder never writes a negative varint; a ninth byte that reaches
     the sign bit is corrupt input, not a length or index. *)
  let v = go 0 0 in
  if v < 0 then failwith "Serialize.decode: varint overflow";
  v

let read_zigzag r =
  let rec go shift acc =
    if shift > 63 then failwith "Serialize.decode: varint overflow";
    let b = read_byte r in
    let acc = Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7F)) shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  let z = go 0 0L in
  Int64.to_int (Int64.logxor (Int64.shift_right_logical z 1) (Int64.neg (Int64.logand z 1L)))

let read_string r =
  let len = read_varint r in
  if r.pos + len > String.length r.data then failwith "Serialize.decode: truncated string";
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

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
  | Load n | Store n | Get_global n | Set_global n -> add_varint buf n
  | Jump t | If { target = t; _ } -> add_varint buf t
  | Call name -> add_string buf name
  | _ -> ()

let decode_instr r : Instr.t =
  match read_byte r with
  | 0 -> Const (read_zigzag r)
  | 1 -> Load (read_varint r)
  | 2 -> Store (read_varint r)
  | 3 -> Get_global (read_varint r)
  | 4 -> Set_global (read_varint r)
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
  | 30 -> Jump (read_varint r)
  | 31 -> If { sense = true; target = read_varint r }
  | 32 -> If { sense = false; target = read_varint r }
  | 33 -> Call (read_string r)
  | 34 -> Ret
  | 35 -> Print
  | 36 -> Read
  | 37 -> Nop
  | op -> failwith (Printf.sprintf "Serialize.decode: bad opcode %d" op)

let encode (p : Program.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "SVM1";
  add_varint buf p.nglobals;
  add_varint buf (Array.length p.funcs);
  Array.iter
    (fun (f : Program.func) ->
      add_string buf f.name;
      add_varint buf f.nargs;
      add_varint buf f.nlocals;
      add_varint buf (Array.length f.code);
      Array.iter (encode_instr buf) f.code)
    p.funcs;
  add_string buf p.main;
  Buffer.contents buf

let decode data =
  let r = { data; pos = 0 } in
  if String.length data < 4 || String.sub data 0 4 <> "SVM1" then failwith "Serialize.decode: bad magic";
  r.pos <- 4;
  let nglobals = read_varint r in
  let nfuncs = read_varint r in
  (* Bound declared counts by the bytes that remain: a corrupt count must
     fail as malformed input, not as an attempted multi-gigabyte
     allocation.  A function costs at least 4 bytes, an instruction at
     least 1. *)
  let remaining () = String.length r.data - r.pos in
  if nfuncs > remaining () / 4 then failwith "Serialize.decode: function count exceeds input";
  (* Decode sequentially: List.init/Array.init do not guarantee order. *)
  let funcs = ref [] in
  for _ = 1 to nfuncs do
    let name = read_string r in
    let nargs = read_varint r in
    let nlocals = read_varint r in
    let ncode = read_varint r in
    if ncode > remaining () then failwith "Serialize.decode: code length exceeds input";
    let code = Array.make ncode Instr.Nop in
    for i = 0 to ncode - 1 do
      code.(i) <- decode_instr r
    done;
    funcs := { Program.name; nargs; nlocals; code } :: !funcs
  done;
  let funcs = List.rev !funcs in
  let main = read_string r in
  { Program.funcs = Array.of_list funcs; nglobals; main }

let decode_opt data = match decode data with p -> Some p | exception Failure _ -> None

let size_in_bytes p = String.length (encode p)
