(* The six byte formats and their one varint codec ({!Util.Varint}).
   Program images, saved traces, cached batch outcomes, native binaries,
   wire payloads and journal records all arrive from outside the process,
   so each decoder must answer any bytes with its documented error and
   nothing else, and must read back every encoding its encoder writes. *)

module V = Util.Varint
module Proto = Service.Proto
module Wire = Service.Wire
module Artifact = Store.Artifact

let hex s = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

(* ---- the codec itself ---- *)

let encoded v =
  let buf = Buffer.create 10 in
  V.add buf v;
  Buffer.contents buf

let read_all f s =
  let r = V.reader s in
  match f r with
  | v -> if V.remaining r = 0 then Ok v else Error "trailing"
  | exception V.Malformed reason -> Error reason

let test_varint_codec () =
  List.iter
    (fun (v, bytes) ->
      Alcotest.(check string) (Printf.sprintf "%d encodes" v) bytes (hex (encoded v));
      Alcotest.(check int) (Printf.sprintf "%d size" v) (String.length (encoded v)) (V.size v);
      Alcotest.(check (result int string)) (Printf.sprintf "%d reads back" v) (Ok v)
        (read_all V.varint (encoded v)))
    [
      (0, "00");
      (127, "7f");
      (128, "8001");
      (300, "ac02");
      ((1 lsl 62) - 1, "ffffffffffffffff3f");
    ];
  List.iter
    (fun (what, bytes, reason) ->
      Alcotest.(check (result int string)) what (Error reason) (read_all V.varint bytes))
    [
      ("empty", "", "truncated");
      ("cut inside", "\x80", "truncated");
      ("ten bytes", String.make 10 '\x80' ^ "\x01", "varint overflow");
      ("bit 62", String.make 8 '\xff' ^ "\x40", "negative varint");
    ];
  let s = Buffer.create 8 in
  V.add_string s "abc";
  Alcotest.(check (result string string)) "string reads back" (Ok "abc") (read_all V.string (Buffer.contents s));
  Alcotest.(check (result string string)) "length past the end" (Error "truncated string")
    (read_all V.string "\x04abc");
  Alcotest.(check (result string string)) "negative length" (Error "negative varint")
    (read_all V.string (String.make 8 '\xff' ^ "\x7f"));
  Alcotest.check_raises "negative value" (Invalid_argument "Varint.add: negative") (fun () ->
      ignore (encoded (-1)))

(* ---- the six formats ---- *)

(* A decoder as the property sees it: [Some] the re-encoding of what
   decoded, [None] its documented refusal.  Any other exception escapes. *)
type format = { name : string; decode : string -> string option; valid : string list }

let program_with_extremes =
  Stackvm.Program.make ~nglobals:2
    [
      Stackvm.Program.func ~name:"main" ~nargs:0 ~nlocals:3
        Stackvm.Instr.
          [
            Const max_int; Const min_int; Binop Add; Store 2; Get_global 1; Set_global 0;
            Call "leaf"; Pop; Const (-1); If { sense = false; target = 11 }; Jump 11; Const 0; Ret;
          ];
      Stackvm.Program.func ~name:"leaf" ~nargs:0 ~nlocals:0 Stackvm.Instr.[ Const 300; Ret ];
    ]

let trace_sample =
  let buf = Stackvm.Tracebuf.create () in
  List.iter
    (fun (fidx, pc, taken) -> Stackvm.Tracebuf.add buf ~fidx ~pc ~taken)
    [ (0, 7, true); (1, 300, false); (0x7FFF_FFFF, 0x7FFF_FFFF, true); (2, 0, false) ];
  buf

let info = { Proto.kind = Artifact.Vm_program; key = "k"; label = "marked"; size = 4096; seq = 9 }

let formats =
  let kernel = List.hd Workloads.Caffeine.kernels in
  [
    {
      name = "SVM1";
      decode =
        (fun s ->
          match Stackvm.Serialize.decode s with
          | p -> Some (Stackvm.Serialize.encode p)
          | exception Failure _ -> None);
      valid =
        List.map Stackvm.Serialize.encode [ program_with_extremes; Workloads.Workload.vm_program kernel ];
    };
    {
      name = "TRC1";
      decode =
        (fun s ->
          match Stackvm.Trace.salvage_events s with
          | buf, None -> Some (Stackvm.Trace.save_events buf)
          | _, Some _ -> None);
      valid = List.map Stackvm.Trace.save_events [ trace_sample; Stackvm.Tracebuf.create () ];
    };
    {
      name = "PBO1";
      decode = (fun s -> Option.map Engine.Batch.encode_outcome (Engine.Batch.decode_outcome s));
      valid =
        List.map Engine.Batch.encode_outcome
          Engine.Batch.
            [
              Embedded { program = "SVM1\x00\x00\x04main"; bytes_before = 300; bytes_after = 1 lsl 40 };
              Recognized { value = Some (Bignum.of_string "123456789123456789"); matched = Some false };
              Recognized { value = None; matched = None };
              Audited
                { passes = [ "rpg"; "opaque" ]; marked_fns = [ "f" ]; flagged_fns = []; clean_flagged = [ "g" ]; ndiags = 3 };
              Tournament_measured
                { attack = "nop-insertion"; control = true; survived = false; false_positive = true; confidence = 0.75; nfaults = 2 };
              Failed { reason = "injected worker crash"; attempts = 3 };
            ];
    };
    {
      name = "NBIN";
      decode =
        (fun s ->
          match Nativesim.Binary.decode s with
          | b -> Some (Nativesim.Binary.encode b)
          | exception Failure _ -> None);
      valid =
        List.map Nativesim.Binary.encode
          [
            Workloads.Workload.native_binary kernel;
            Nativesim.Binary.make ~symbols:[ ("main", 0x1000); ("loop", 0x1234) ] ~text:"\x01\x02" ~data:"" ();
          ];
    };
    {
      name = "wire request";
      decode = (fun s -> Result.to_option (Result.map Wire.encode_request (Wire.decode_request s)));
      valid =
        List.map Wire.encode_request
          Proto.
            [
              Put_artifact { kind = Artifact.Report; key = "r"; label = "l"; payload = "\x00\xff" };
              Embed
                {
                  scheme = "jwm";
                  program = "SVM1";
                  key = "k";
                  bits = 64;
                  pieces = 12;
                  fingerprint = Bignum.of_int 424242;
                  input = [ 36; -84 ];
                  seed = -7L;
                };
              Recognize { scheme = "gwm"; source = `Stored "ab12"; key = "k"; bits = 64; input = [ 50 ] };
              Journal_fetch { from_ = 1 lsl 33; max_bytes = 65536 };
              Stats;
            ];
    };
    {
      name = "wire response";
      decode = (fun s -> Result.to_option (Result.map Wire.encode_response (Wire.decode_response s)));
      valid =
        List.map Wire.encode_response
          Proto.
            [
              Recognized { value = Some (Bignum.of_int 99); confidence = 0.5; registered = Some info };
              Listing [ info; { info with key = "k2"; seq = 10 } ];
              Stats_reply
                { entries = 1; journal_bytes = 200; payload_bytes = 3; puts = 4; gets = 5; requests = 6; errors = 0 };
              Blob_data { digest = "d"; payload = None };
              Error { code = "bad-request"; message = "no" };
            ];
    };
    {
      name = "journal record";
      decode = (fun s -> Option.map Artifact.encode (Artifact.decode s));
      valid =
        List.map Artifact.encode
          Artifact.
            [
              Put
                {
                  kind = Trace;
                  key = "t1";
                  label = "saved";
                  blob = "0123abcd";
                  size = 1 lsl 20;
                  seq = 128;
                  created_at = 1_700_000_000;
                };
              Delete { kind = Cache_entry; key = "c"; seq = 7 };
            ];
    };
  ]

(* Overlong and negative fields in each format, at a varint and at a string
   length, and bytes after a valid SVM1 or NBIN encoding: no encoder writes
   them, so every decoder must refuse them. *)
let overlong = String.make 10 '\x80' ^ "\x01"
let negative = String.make 8 '\xff' ^ "\x7f"

let fixed_cases =
  [
    ("SVM1", "SVM1" ^ overlong);
    ("SVM1", "SVM1\x00\x01" ^ negative);
    ("TRC1", "TRC1" ^ overlong);
    ("TRC1", "TRC1" ^ negative);
    ("PBO1", "PBO1F\x00" ^ overlong);
    ("PBO1", "PBO1F" ^ negative);
    ("NBIN", "NBIN" ^ overlong ^ "\x00\x00\x00");
    ("NBIN", "NBIN\x00" ^ negative);
    ("wire request", "\x03J" ^ overlong ^ "\x00");
    ("wire request", "\x03B" ^ negative);
    ("wire response", "\x03o\x00" ^ overlong);
    ("wire response", "\x03x" ^ negative);
    ("journal record", "Dv" ^ overlong ^ "\x00");
    ("journal record", "Dv\x00" ^ negative);
    ("SVM1", Stackvm.Serialize.encode program_with_extremes ^ "xyz");
    ("NBIN", Nativesim.Binary.encode (Nativesim.Binary.make ~text:"\x01\x02" ~data:"" ()) ^ "\x00");
  ]

let verdict f s =
  match f.decode s with
  | v -> Ok v
  | exception e -> Error (Printf.sprintf "%s: undocumented %s" f.name (Printexc.to_string e))

let test_valid_round_trip () =
  List.iter
    (fun f ->
      List.iter
        (fun v ->
          Alcotest.(check (result (option string) string)) (f.name ^ " round-trips") (Ok (Some v)) (verdict f v))
        f.valid)
    formats

(* Random bytes behind a format's magic, truncations and one-byte
   mutations of valid encodings, the valid encodings themselves, and the
   fixed cases above. *)
let gen_case =
  let open QCheck.Gen in
  let mutated =
    let* f = oneofl formats in
    let* v = oneofl f.valid in
    let magic = String.sub v 0 (min 4 (String.length v)) in
    let* input =
      frequency
        [
          (2, map (fun junk -> magic ^ junk) (string_size ~gen:char (int_bound 48)));
          (1, string_size ~gen:char (int_bound 16));
          (3, map (fun n -> String.sub v 0 n) (int_bound (String.length v)));
          ( 4,
            let* i = int_bound (String.length v - 1) in
            let* c = char in
            return (String.mapi (fun j x -> if j = i then c else x) v) );
          (1, return v);
        ]
    in
    return (f.name, input)
  in
  frequency [ (12, mutated); (1, oneofl fixed_cases) ]

let qcheck_decoders_total =
  QCheck.Test.make ~name:"every decoder answers only with its documented error" ~count:3000
    (QCheck.make gen_case ~print:(fun (name, s) ->
         Printf.sprintf "%s %S" name (if String.length s > 200 then String.sub s 0 200 ^ "..." else s)))
    (fun (name, s) ->
      let f = List.find (fun f -> f.name = name) formats in
      match verdict f s with
      | Error msg -> QCheck.Test.fail_report msg
      | Ok (Some _) when List.mem (name, s) fixed_cases -> QCheck.Test.fail_report (name ^ ": malformed input accepted")
      | Ok (Some re) when List.mem s f.valid && re <> s -> QCheck.Test.fail_report (name ^ ": no round trip")
      | Ok None when List.mem s f.valid -> QCheck.Test.fail_report (name ^ ": valid encoding refused")
      | Ok _ -> true)

(* One wire request, one wire response and one journal record, byte for
   byte: the shared codec writes what each format's own writer wrote. *)
let test_golden_bytes () =
  Alcotest.(check string) "wire request"
    "03450367776d016b401006343234323432082d3132333435363702023530032d38340453564d31"
    (hex
       (Wire.encode_request
          (Proto.Embed
             {
               scheme = "gwm";
               program = "SVM1";
               key = "k";
               bits = 64;
               pieces = 16;
               fingerprint = Bignum.of_int 424242;
               input = [ 50; -84 ];
               seed = -1234567L;
             })));
  Alcotest.(check string) "wire response" "0372010634323432343206307831702d310102766d016b066d61726b6564802009"
    (hex (Wire.encode_response (Proto.Recognized { value = Some (Bignum.of_int 424242); confidence = 0.5; registered = Some info })));
  Alcotest.(check string) "journal record" "507680800106646967657374086361666665696e650453564d31ac0280e2cfaa06"
    (hex
       (Artifact.encode
          (Artifact.Put
             {
               kind = Artifact.Vm_program;
               key = "digest";
               label = "caffeine";
               blob = "SVM1";
               size = 300;
               seq = 1 lsl 14;
               created_at = 1_700_000_000;
             })))

(* The CLI on a malformed file: every command that reads a program, a
   binary or a MiniC source reports "<path>: not a valid ..." on one line
   and exits 1, never an uncaught exception (125) or a fault-injection
   abort (4).  Runs the built executable beside this test's. *)
let test_cli_rejects_malformed_files () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/pathmark_cli.exe" in
  if not (Sys.file_exists exe) then Alcotest.failf "%s not built" exe;
  let file contents suffix =
    let path = Filename.temp_file "pathmark-malformed" suffix in
    Out_channel.with_open_bin path (fun oc -> output_string oc contents);
    path
  in
  let program = file "SVM1\x80" ".svm" and binary = file ("NBIN\x00" ^ negative) ".nbin" in
  let source = file "func main() { return 1 +; }" ".mc" in
  let trailing = file (Stackvm.Serialize.encode program_with_extremes ^ "xyz") ".svm" in
  let out = Filename.temp_file "pathmark-out" "" and err = Filename.temp_file "pathmark-err" "" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ program; binary; source; trailing; out; err ])
    (fun () ->
      List.iter
        (fun args ->
          let code = Sys.command (Filename.quote_command exe ~stdout:out ~stderr:err args) in
          let message = In_channel.with_open_bin err In_channel.input_all in
          let what = String.concat " " (List.map Filename.basename args) in
          Alcotest.(check int) (what ^ ": exit code") 1 code;
          let path = List.nth args 1 in
          Alcotest.(check bool) (what ^ ": one-line message naming the file") true
            (String.starts_with ~prefix:(path ^ ": not a valid ") message
            && String.index_opt message '\n' = Some (String.length message - 1)))
        [
          [ "run-vm"; program ];
          [ "attack-vm"; program; "nop-insertion"; "-o"; out ];
          [ "trace-vm"; program; "-o"; out ];
          [ "analyze"; program ];
          [ "run-native"; binary ];
          [ "disasm"; binary ];
          [ "analyze"; binary; "--native" ];
          [ "recognize"; program ];
          [ "embed"; source; "-o"; out ];
          [ "run-vm"; trailing ];
        ])

let suite =
  [
    Alcotest.test_case "varint codec: encodings, bounds, rejections" `Quick test_varint_codec;
    Alcotest.test_case "every format round-trips its encodings" `Quick test_valid_round_trip;
    Alcotest.test_case "golden bytes: wire request, response, journal record" `Quick test_golden_bytes;
    QCheck_alcotest.to_alcotest qcheck_decoders_total;
    Alcotest.test_case "CLI exits 1 on a malformed file" `Quick test_cli_rejects_malformed_files;
  ]
