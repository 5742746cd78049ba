type t = { text : string; data : string; entry : int; symbols : (string * int) list }

let make ?(symbols = []) ?(entry = Layout.text_base) ~text ~data () =
  if String.length text > Layout.text_capacity then invalid_arg "Binary.make: text too large";
  if String.length data > Layout.data_capacity then invalid_arg "Binary.make: data too large";
  { text; data; entry; symbols }

let symbol t name =
  match List.assoc_opt name t.symbols with Some a -> a | None -> raise Not_found

let text_end t = Layout.text_base + String.length t.text

let size t = String.length t.text + String.length t.data

(* container format: magic, varints and length-prefixed strings *)
let encode t =
  let buf = Buffer.create (size t + 64) in
  Buffer.add_string buf "NBIN";
  Util.Varint.add buf t.entry;
  Util.Varint.add_string buf t.text;
  Util.Varint.add_string buf t.data;
  Util.Varint.add buf (List.length t.symbols);
  List.iter
    (fun (name, addr) ->
      Util.Varint.add_string buf name;
      Util.Varint.add buf addr)
    t.symbols;
  Buffer.contents buf

let decode s =
  if String.length s < 4 || String.sub s 0 4 <> "NBIN" then failwith "Binary.decode: bad magic";
  let r = Util.Varint.reader ~pos:4 s in
  match
    let entry = Util.Varint.varint r in
    let text = Util.Varint.string r in
    let data = Util.Varint.string r in
    let nsyms = Util.Varint.varint r in
    let symbols = ref [] in
    for _ = 1 to nsyms do
      let name = Util.Varint.string r in
      let addr = Util.Varint.varint r in
      symbols := (name, addr) :: !symbols
    done;
    if Util.Varint.remaining r > 0 then failwith "Binary.decode: trailing bytes";
    make ~symbols:(List.rev !symbols) ~entry ~text ~data ()
  with
  | t -> t
  | exception Util.Varint.Malformed reason -> failwith ("Binary.decode: " ^ reason)
  | exception Invalid_argument reason -> failwith reason
