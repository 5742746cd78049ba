let passphrase = "pathmark-experiments-key"

let watermark_for ~bits =
  let params = Codec.Params.make ~passphrase ~watermark_bits:bits () in
  let rng = Util.Prng.create (Int64.of_int (bits * 7919)) in
  let rec draw () =
    let w = Bignum.random_bits rng bits in
    if Codec.Params.fits params w && Bignum.num_bits w = bits then w else draw ()
  in
  draw ()

let vm_steps prog ~input =
  let r = Stackvm.Compile.run_program ~fuel:2_000_000_000 prog ~input in
  match r.Stackvm.Interp.outcome with
  | Stackvm.Interp.Finished _ -> r.Stackvm.Interp.steps
  | Stackvm.Interp.Trapped { reason; _ } -> failwith ("vm_steps: trapped: " ^ reason)
  | Stackvm.Interp.Out_of_fuel -> failwith "vm_steps: out of fuel"

let native_steps bin ~input =
  let r = Nativesim.Machine.run ~fuel:2_000_000_000 bin ~input in
  match r.Nativesim.Machine.outcome with
  | Nativesim.Machine.Halted -> r.Nativesim.Machine.steps
  | Nativesim.Machine.Trapped { reason; _ } -> failwith ("native_steps: trapped: " ^ reason)
  | Nativesim.Machine.Out_of_fuel -> failwith "native_steps: out of fuel"

let recognized ?(fuel = 2_000_000_000) ~bits ~input prog =
  Jwm.Recognize.recognizes ~fuel ~passphrase ~watermark_bits:bits ~input
    ~expected:(watermark_for ~bits) prog

let header title =
  Printf.printf "\n=== %s ===\n%!" title

let row line = Printf.printf "%s\n%!" line
