type cell_spec = {
  cell_fingerprint : Bignum.t;
  cell_attack : string;
  cell_control : bool;
  cell_fault_seed : int64;
  cell_faults : Fault.Spec.t list;
}

type vm_action =
  | Embed of { fingerprint : Bignum.t; pieces : int }
  | Recognize of { expected : Bignum.t option }
  | Audit of { fingerprint : Bignum.t }
  | Tournament_cell of cell_spec

type native_action =
  | Native_audit of { fingerprint : Bignum.t }
  | Native_tournament_cell of cell_spec

type payload =
  | Vm of { program : Stackvm.Program.t; action : vm_action }
  | Native of { program : Nativesim.Asm.program; action : native_action }

type t = {
  label : string;
  key : string;
  bits : int;
  input : int list;
  seed : int64;
  fuel : int option;
  scheme : string;
  payload : payload;
}

let default_seed = 0x1234_5678L
let default_vm_scheme = "jwm"
let default_native_scheme = "nwm"

let vm_embed ?label ?(seed = default_seed) ?fuel ?(scheme = default_vm_scheme) ~key ~bits ~pieces
    ~fingerprint ~input program =
  let label = Option.value label ~default:("embed:" ^ Bignum.to_string fingerprint) in
  {
    label;
    key;
    bits;
    input;
    seed;
    fuel;
    scheme;
    payload = Vm { program; action = Embed { fingerprint; pieces } };
  }

let vm_recognize ?label ?(seed = default_seed) ?fuel ?(scheme = default_vm_scheme) ?expected ~key ~bits
    ~input program =
  let label = Option.value label ~default:"recognize" in
  {
    label;
    key;
    bits;
    input;
    seed;
    fuel;
    scheme;
    payload = Vm { program; action = Recognize { expected } };
  }

let vm_audit ?label ?(seed = default_seed) ?fuel ?(scheme = default_vm_scheme) ~key ~bits ~fingerprint
    ~input program =
  let label = Option.value label ~default:("audit:" ^ scheme) in
  {
    label;
    key;
    bits;
    input;
    seed;
    fuel;
    scheme;
    payload = Vm { program; action = Audit { fingerprint } };
  }

let native_audit ?label ?(seed = default_seed) ?fuel ~bits ~fingerprint ~input program =
  let label = Option.value label ~default:("audit:" ^ default_native_scheme) in
  {
    label;
    key = "";
    bits;
    input;
    seed;
    fuel;
    scheme = default_native_scheme;
    payload = Native { program; action = Native_audit { fingerprint } };
  }

let cell_spec ?(control = false) ?(fault_seed = 1L) ?(faults = []) ~fingerprint ~attack () =
  {
    cell_fingerprint = fingerprint;
    cell_attack = attack;
    cell_control = control;
    cell_fault_seed = fault_seed;
    cell_faults = faults;
  }

let vm_tournament_cell ?label ?(seed = default_seed) ?fuel ?(scheme = default_vm_scheme) ~key ~bits
    ~input ~cell program =
  let label = Option.value label ~default:(Printf.sprintf "cell:%s:%s" scheme cell.cell_attack) in
  {
    label;
    key;
    bits;
    input;
    seed;
    fuel;
    scheme;
    payload = Vm { program; action = Tournament_cell cell };
  }

let native_tournament_cell ?label ?(seed = default_seed) ?fuel ~bits ~input ~cell program =
  let label =
    Option.value label
      ~default:(Printf.sprintf "cell:%s:%s" default_native_scheme cell.cell_attack)
  in
  {
    label;
    key = "";
    bits;
    input;
    seed;
    fuel;
    scheme = default_native_scheme;
    payload = Native { program; action = Native_tournament_cell cell };
  }

let program_bytes t =
  match t.payload with
  | Vm { program; _ } -> Stackvm.Serialize.encode program
  | Native { program; _ } -> Nativesim.Binary.encode (Nativesim.Asm.assemble program)

let hex s = Digest.to_hex (Digest.string s)
let program_digest t = hex (program_bytes t)

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

let trace_digest t =
  let buf = Buffer.create 256 in
  add_field buf "pathmark-trace" "v1";
  add_field buf "input" (input_string t.input);
  add_field buf "fuel" (fuel_string t.fuel);
  add_field buf "program" (program_bytes t);
  hex (Buffer.contents buf)

let action_fields buf t =
  match t.payload with
  | Vm { action = Embed { fingerprint; pieces }; _ } ->
      add_field buf "action" "embed";
      add_field buf "fingerprint" (Bignum.to_string fingerprint);
      add_field buf "pieces" (string_of_int pieces)
  | Vm { action = Recognize { expected }; _ } ->
      add_field buf "action" "recognize";
      add_field buf "expected" (match expected with None -> "" | Some w -> Bignum.to_string w)
  | Vm { action = Audit { fingerprint }; _ } ->
      add_field buf "action" "audit";
      add_field buf "fingerprint" (Bignum.to_string fingerprint)
  | Native { action = Native_audit { fingerprint }; _ } ->
      add_field buf "action" "native-audit";
      add_field buf "fingerprint" (Bignum.to_string fingerprint)
  | Vm { action = Tournament_cell cell; _ } | Native { action = Native_tournament_cell cell; _ } ->
      add_field buf "action" "tournament";
      add_field buf "fingerprint" (Bignum.to_string cell.cell_fingerprint);
      add_field buf "attack" cell.cell_attack;
      add_field buf "control" (string_of_bool cell.cell_control);
      add_field buf "fault_seed" (Int64.to_string cell.cell_fault_seed);
      add_field buf "faults" (String.concat "," (List.map Fault.Spec.to_string cell.cell_faults))

let digest t =
  let buf = Buffer.create 512 in
  add_field buf "pathmark-job" "v2";
  add_field buf "key" t.key;
  add_field buf "scheme" t.scheme;
  add_field buf "bits" (string_of_int t.bits);
  add_field buf "input" (input_string t.input);
  add_field buf "seed" (Int64.to_string t.seed);
  add_field buf "fuel" (fuel_string t.fuel);
  action_fields buf t;
  add_field buf "program" (program_bytes t);
  hex (Buffer.contents buf)

let kind t =
  match t.payload with
  | Vm { action = Embed _; _ } -> "embed"
  | Vm { action = Recognize _; _ } -> "recognize"
  | Vm { action = Audit _; _ } -> "audit"
  | Vm { action = Tournament_cell _; _ } -> "tournament"
  | Native { action = Native_audit _; _ } -> "native-audit"
  | Native { action = Native_tournament_cell _; _ } -> "native-tournament"

let describe t = Printf.sprintf "%s %s (%d bits, input [%s])" (kind t) t.label t.bits (input_string t.input)
