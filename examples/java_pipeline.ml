(* The full bytecode-track pipeline of Section 3, on the Jess-analog rule
   engine: embed, attack with the whole distortive suite, recognize after
   each attack.

   Run with: dune exec examples/java_pipeline.exe *)

open Pathmark

let () =
  let workload = Workloads.Jesslite.engine in
  let program = Workloads.Workload.vm_program workload in
  let input = workload.Workloads.Workload.input in
  let key = "examples-java-pipeline-key" in
  let fingerprint = Bignum.of_string "88962710306127702866241727433142015" in

  Printf.printf "workload: %s (%d bytes of bytecode)\n" workload.Workloads.Workload.name
    (Stackvm.Serialize.size_in_bytes program);

  let watermarked =
    watermark_vm ~key ~watermark:fingerprint ~bits:128 ~pieces:60 ~input program
  in
  Printf.printf "embedded 128-bit fingerprint in 60 pieces (%d bytes)\n\n"
    (Stackvm.Serialize.size_in_bytes watermarked);

  Printf.printf "%-26s %-10s %s\n" "attack" "semantics" "fingerprint";
  Printf.printf "%-26s %-10s %s\n" "(none)" "ok"
    (match recognize_vm ~key ~bits:128 ~input watermarked with
    | Some w when Bignum.equal w fingerprint -> "recovered"
    | _ -> "LOST");

  List.iter
    (fun (name, attack) ->
      let rng = Util.Prng.create 2024L in
      let attacked = attack rng watermarked in
      let ok =
        Stackvm.Verify.check attacked = Ok ()
        && Stackvm.Compile.equivalent_on watermarked attacked ~inputs:[ input ]
      in
      let mark =
        match recognize_vm ~key ~bits:128 ~input attacked with
        | Some w when Bignum.equal w fingerprint -> "recovered"
        | Some _ -> "WRONG VALUE"
        | None -> "lost"
      in
      Printf.printf "%-26s %-10s %s\n" name (if ok then "ok" else "BROKEN") mark)
    Vmattacks.Attacks.all;

  (* the class-encryption analog: instrumentation is blind, the VM is not *)
  let pkg = Vmattacks.Attacks.encrypt_package ~key:55L watermarked in
  Printf.printf "%-26s %-10s %s\n" "program-encryption" "ok"
    (match Vmattacks.Attacks.static_instrument pkg with
    | None -> "lost for instrumentation-based tracers"
    | Some _ -> "?");
  let trace = Vmattacks.Attacks.vm_trace_package pkg ~input in
  let params = Codec.Params.make ~passphrase:key ~watermark_bits:128 () in
  let report = Codec.Recombine.recover_from_bitstring params (Stackvm.Trace.bitstring trace) in
  Printf.printf "%-26s %-10s %s\n" "  ... via VM-level tracing" "ok"
    (match report.Codec.Recombine.value with
    | Some w when Bignum.equal w fingerprint -> "recovered"
    | _ -> "lost")
