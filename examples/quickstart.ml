(* Quickstart: watermark a small program and recognize the mark.

   Run with: dune exec examples/quickstart.exe *)

let source =
  {| // a little program: prints gcd(a, b) and a checksum loop
     func gcd(int a, int b) {
       while (b != 0) { int t = a % b; a = b; b = t; }
       return a;
     }
     func main() {
       int a = read();
       int b = read();
       print(gcd(a, b));
       int acc = 0;
       int i = 0;
       while (i < 40) { acc = acc + i * i; i = i + 1; }
       print(acc);
       return 0;
     } |}

let () =
  (* 1. compile the program for the stack VM *)
  let program = Pathmark.Minic.To_stackvm.compile_source source in

  (* 2. the watermarking secrets: a passphrase and an input sequence *)
  let key = "a passphrase only the owner knows" in
  let secret_input = [ 252; 105 ] in

  (* 3. embed a 64-bit fingerprint *)
  let fingerprint = Bignum.of_string "1311768467463790320" in
  let watermarked =
    Pathmark.watermark_vm ~key ~watermark:fingerprint ~bits:64 ~pieces:30 ~input:secret_input program
  in
  Printf.printf "original:    %d bytes\n" (Pathmark.Stackvm.Serialize.size_in_bytes program);
  Printf.printf "watermarked: %d bytes\n" (Pathmark.Stackvm.Serialize.size_in_bytes watermarked);

  (* 4. the program still behaves identically *)
  let run p = (Pathmark.Stackvm.Compile.run_program p ~input:secret_input).Pathmark.Stackvm.Interp.outputs in
  assert (run program = run watermarked);
  Printf.printf "behaviour unchanged: outputs %s\n"
    (String.concat ", " (List.map string_of_int (run watermarked)));

  (* 5. blind recognition: only the program + secrets are needed *)
  (match Pathmark.recognize_vm ~key ~bits:64 ~input:secret_input watermarked with
  | Some w -> Printf.printf "recovered fingerprint: %s\n" (Bignum.to_string w)
  | None -> failwith "recognition failed");

  (* 6. without the right key, nothing comes out *)
  match Pathmark.recognize_vm ~key:"wrong key" ~bits:64 ~input:secret_input watermarked with
  | Some w when Bignum.equal w fingerprint -> failwith "the wrong key must not recover the mark"
  | _ -> Printf.printf "wrong key recovers nothing, as intended\n"
