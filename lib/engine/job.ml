type cell_spec = {
  cell_fingerprint : Bignum.t;
  cell_attack : string;
  cell_control : bool;
  cell_fault_seed : int64;
  cell_faults : Fault.Spec.t list;
}

type action =
  | Embed of { fingerprint : Bignum.t; pieces : int }
  | Recognize of { expected : Bignum.t option }
  | Audit of { fingerprint : Bignum.t }
  | Tournament_cell of cell_spec

type t = {
  label : string;
  key : string;
  bits : int;
  input : int list;
  seed : int64;
  fuel : int option;
  scheme : string;
  program : Scheme.Watermarker.carrier;
  action : action;
}

let default_label scheme = function
  | Embed { fingerprint; _ } -> "embed:" ^ Bignum.to_string fingerprint
  | Recognize _ -> "recognize"
  | Audit _ -> "audit:" ^ scheme
  | Tournament_cell cell -> Printf.sprintf "cell:%s:%s" scheme cell.cell_attack

let make ?label ?(seed = Scheme.Watermarker.default_seed) ?fuel ?(scheme = "jwm") ~key ~bits ~input
    program action =
  {
    label = Option.value label ~default:(default_label scheme action);
    (* a native job carries no passphrase: nothing on that track reads it *)
    key = (if Scheme.Track.keyed program then key else "");
    bits;
    input;
    seed;
    fuel;
    scheme;
    program;
    action;
  }

let cell_spec ?(control = false) ?(fault_seed = 1L) ?(faults = []) ~fingerprint ~attack () =
  {
    cell_fingerprint = fingerprint;
    cell_attack = attack;
    cell_control = control;
    cell_fault_seed = fault_seed;
    cell_faults = faults;
  }

let program_bytes t = Scheme.Track.encode t.program

let hex s = Digest.to_hex (Digest.string s)

let bytes_of ?program_bytes:given t = match given with Some b -> b | None -> program_bytes t

let program_digest ?program_bytes t = hex (bytes_of ?program_bytes t)

(* Canonical spec encoding for digesting: a tagged, length-unambiguous
   text rendering of every semantic field followed by the program bytes. *)
let add_field buf name value =
  Buffer.add_string buf name;
  Buffer.add_char buf '=';
  Buffer.add_string buf (string_of_int (String.length value));
  Buffer.add_char buf ':';
  Buffer.add_string buf value;
  Buffer.add_char buf '\n'

let input_string input = String.concat "," (List.map string_of_int input)
let fuel_string fuel = match fuel with None -> "none" | Some f -> string_of_int f

let trace_digest ?program_bytes t =
  let buf = Buffer.create 256 in
  add_field buf "pathmark-trace" "v1";
  add_field buf "input" (input_string t.input);
  add_field buf "fuel" (fuel_string t.fuel);
  add_field buf "program" (bytes_of ?program_bytes t);
  hex (Buffer.contents buf)

let action_fields buf t =
  match t.action with
  | Embed { fingerprint; pieces } ->
      add_field buf "action" "embed";
      add_field buf "fingerprint" (Bignum.to_string fingerprint);
      add_field buf "pieces" (string_of_int pieces)
  | Recognize { expected } ->
      add_field buf "action" "recognize";
      add_field buf "expected" (match expected with None -> "" | Some w -> Bignum.to_string w)
  | Audit { fingerprint } ->
      add_field buf "action" "audit";
      add_field buf "fingerprint" (Bignum.to_string fingerprint)
  | Tournament_cell cell ->
      add_field buf "action" "tournament";
      add_field buf "fingerprint" (Bignum.to_string cell.cell_fingerprint);
      add_field buf "attack" cell.cell_attack;
      add_field buf "control" (string_of_bool cell.cell_control);
      add_field buf "fault_seed" (Int64.to_string cell.cell_fault_seed);
      add_field buf "faults" (String.concat "," (List.map Fault.Spec.to_string cell.cell_faults))

let digest ?program_bytes t =
  let buf = Buffer.create 512 in
  add_field buf "pathmark-job" "v2";
  add_field buf "key" t.key;
  add_field buf "scheme" t.scheme;
  add_field buf "bits" (string_of_int t.bits);
  add_field buf "input" (input_string t.input);
  add_field buf "seed" (Int64.to_string t.seed);
  add_field buf "fuel" (fuel_string t.fuel);
  action_fields buf t;
  add_field buf "program" (bytes_of ?program_bytes t);
  hex (Buffer.contents buf)

let kind t =
  match t.action with
  | Embed _ -> "embed"
  | Recognize _ -> "recognize"
  | Audit _ -> "audit"
  | Tournament_cell _ -> "tournament"

let describe t = Printf.sprintf "%s %s (%d bits, input [%s])" (kind t) t.label t.bits (input_string t.input)
