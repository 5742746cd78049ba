module Util = Util
module Bignum = Bignum
module Numtheory = Numtheory
module Crypto = Crypto
module Codec = Codec
module Stackvm = Stackvm
module Minic = Minic
module Jwm = Jwm
module Gwm = Gwm
module Analysis = Analysis
module Gattacks = Gattacks
module Vmattacks = Vmattacks
module Nativesim = Nativesim
module Phash = Phash
module Nwm = Nwm
module Nattacks = Nattacks
module Workloads = Workloads
module Scheme = Scheme
module Engine = Engine
module Audit = Audit
module Fault = Fault
module Store = Store
module Service = Service

let watermark_vm ?seed ~key ~watermark ~bits ~pieces ~input prog =
  let spec =
    { Jwm.Embed.passphrase = key; watermark; watermark_bits = bits; pieces; input }
  in
  (Jwm.Embed.embed ?seed spec prog).Jwm.Embed.program

let recognize_vm ?fuel ~key ~bits ~input prog =
  (Jwm.Recognize.recognize ?fuel ~passphrase:key ~watermark_bits:bits ~input prog)
    .Jwm.Recognize.value

let watermark_native ?seed ?tamper_proof ~watermark ~bits ~training_input prog =
  Nwm.Embed.embed ?seed ?tamper_proof ~watermark ~bits ~training_input prog

let extract_native ?kind bin ~begin_addr ~end_addr ~input =
  match Nwm.Extract.extract ?kind bin ~begin_addr ~end_addr ~input with
  | Ok ex -> Some (Nwm.Extract.watermark ex)
  | Error _ -> None

let batch_seed base index = Int64.add base (Int64.mul (Int64.of_int (index + 1)) 0x9E37_79B9_7F4A_7C15L)

let watermark_batch ?(seed = 0x1234_5678L) ?(domains = 1) ?cache ?events ~key ~bits ~pieces ~input
    ~fingerprints prog =
  let carrier = Scheme.Watermarker.Vm_program prog in
  let jobs =
    List.mapi
      (fun i fingerprint ->
        Engine.Job.make ~label:("fp:" ^ Bignum.to_string fingerprint) ~seed:(batch_seed seed i) ~key
          ~bits ~input carrier (Engine.Job.Embed { fingerprint; pieces }))
      fingerprints
  in
  Engine.Batch.run ~domains ?cache ?events jobs
  |> List.map (fun (r : Engine.Batch.result) ->
         match r.Engine.Batch.outcome with
         | Engine.Batch.Embedded { program; _ } -> (
             (* the program the job built, when it ran in this call; a
                cached result has only its bytes *)
             match r.Engine.Batch.built with
             | Some (Scheme.Watermarker.Vm_program p) -> p
             | _ -> Stackvm.Serialize.decode program)
         | Engine.Batch.Failed { reason; _ } ->
             failwith (Printf.sprintf "watermark_batch: job %s failed: %s" r.Engine.Batch.job.Engine.Job.label reason)
         | _ -> assert false)
