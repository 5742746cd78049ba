(* Every VM workload, unmarked and jwm-marked at 64 bits / 20 pieces and
   at 256 bits / 60 pieces — the shapes of real recognition traces.  Built
   once, on first use, and shared by the suites that hold batch harvest,
   streaming recognition and the reference harvest to one another. *)

let key = "vm corpus key"

let workloads =
  Workloads.Spec.all @ [ Workloads.Caffeine.suite ] @ Workloads.Caffeine.kernels
  @ [ Workloads.Jesslite.engine; Workloads.Miniinterp.interpreter ]

type entry = {
  name : string;  (** workload/variant *)
  bits : int;  (** the recognizer's watermark width *)
  mark : Bignum.t option;  (** the embedded fingerprint, for marked entries *)
  program : Stackvm.Program.t;
  input : int list;
}

let marks =
  [
    (64, 20, Bignum.of_string "987654321987654321");
    (256, 60, Bignum.of_string "31415926535897932384626433832795028841971693993751058209749445923");
  ]

let entries =
  lazy
    (List.concat_map
       (fun (wl : Workloads.Workload.t) ->
         let host = Workloads.Workload.vm_program wl in
         let input = wl.input in
         let unmarked = { name = wl.name ^ "/unmarked"; bits = 64; mark = None; program = host; input } in
         unmarked
         :: List.map
              (fun (bits, pieces, mark) ->
                let spec =
                  { Jwm.Embed.passphrase = key; watermark = mark; watermark_bits = bits; pieces; input }
                in
                let report = Jwm.Embed.embed ~seed:11L spec host in
                {
                  name = Printf.sprintf "%s/jwm-%d" wl.name bits;
                  bits;
                  mark = Some mark;
                  program = report.Jwm.Embed.program;
                  input;
                })
              marks)
       workloads)

let marked () = List.filter (fun e -> e.mark <> None) (Lazy.force entries)

(* The trace bit-string of a compiled recognition run. *)
let trace_bits e =
  let events = Stackvm.Tracebuf.create () in
  ignore (Stackvm.Compile.run ~trace:events (Stackvm.Compile.of_program e.program) ~input:e.input);
  Stackvm.Trace.bits_of_buf events

let show_report (r : Codec.Recombine.report) =
  Printf.sprintf "candidates=%d distinct=%d after_vote=%d dropped=%d covered=%b used=[%s] value=%s"
    r.candidates r.distinct r.after_vote r.dropped_by_greedy r.covered
    (String.concat "; " (List.map (Format.asprintf "%a" Codec.Statement.pp) r.used))
    (match r.value with Some v -> Bignum.to_string v | None -> "none")
