type kind = Vm_program | Native_program | Trace | Key_material | Report | Cache_entry

let all_kinds = [ Vm_program; Native_program; Trace; Key_material; Report; Cache_entry ]

let kind_to_string = function
  | Vm_program -> "vm"
  | Native_program -> "native"
  | Trace -> "trace"
  | Key_material -> "key"
  | Report -> "report"
  | Cache_entry -> "cache"

let kind_of_string = function
  | "vm" -> Some Vm_program
  | "native" -> Some Native_program
  | "trace" -> Some Trace
  | "key" -> Some Key_material
  | "report" -> Some Report
  | "cache" -> Some Cache_entry
  | _ -> None

let kind_tag = function
  | Vm_program -> 'v'
  | Native_program -> 'n'
  | Trace -> 't'
  | Key_material -> 'k'
  | Report -> 'r'
  | Cache_entry -> 'c'

let kind_of_tag = function
  | 'v' -> Some Vm_program
  | 'n' -> Some Native_program
  | 't' -> Some Trace
  | 'k' -> Some Key_material
  | 'r' -> Some Report
  | 'c' -> Some Cache_entry
  | _ -> None

type entry = {
  kind : kind;
  key : string;
  label : string;
  blob : string;
  size : int;
  seq : int;
  created_at : int;
}

type op = Put of entry | Delete of { kind : kind; key : string; seq : int }

(* ---- codec ---- *)

module V = Util.Varint

let encode op =
  let buf = Buffer.create 128 in
  (match op with
  | Put e ->
      Buffer.add_char buf 'P';
      Buffer.add_char buf (kind_tag e.kind);
      V.add buf e.seq;
      V.add_string buf e.key;
      V.add_string buf e.label;
      V.add_string buf e.blob;
      V.add buf e.size;
      V.add buf e.created_at
  | Delete { kind; key; seq } ->
      Buffer.add_char buf 'D';
      Buffer.add_char buf (kind_tag kind);
      V.add buf seq;
      V.add_string buf key);
  Buffer.contents buf

let decode s =
  let r = V.reader s in
  let kind () =
    match kind_of_tag (Char.chr (V.byte r)) with Some k -> k | None -> raise (V.Malformed "bad kind")
  in
  try
    let op =
      match Char.chr (V.byte r) with
      | 'P' ->
          let kind = kind () in
          let seq = V.varint r in
          let key = V.string r in
          let label = V.string r in
          let blob = V.string r in
          let size = V.varint r in
          let created_at = V.varint r in
          Put { kind; key; label; blob; size; seq; created_at }
      | 'D' ->
          let kind = kind () in
          let seq = V.varint r in
          let key = V.string r in
          Delete { kind; key; seq }
      | _ -> raise (V.Malformed "bad op")
    in
    if V.remaining r <> 0 then None else Some op
  with V.Malformed _ -> None
