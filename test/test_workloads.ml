(* Tests for the benchmark workloads: every workload must compile to both
   substrates and reproduce the MiniC reference interpreter's outputs on
   its standard and alternative inputs. *)

let all_workloads =
  (Workloads.Caffeine.suite :: Workloads.Caffeine.kernels)
  @ [ Workloads.Jesslite.engine; Workloads.Miniinterp.interpreter ]
  @ Workloads.Spec.all

let check_one (w : Workloads.Workload.t) input =
  let expect = Workloads.Workload.expected_outputs w input in
  let vm = Stackvm.Interp.run (Workloads.Workload.vm_program w) ~input in
  Alcotest.(check (list int)) (w.Workloads.Workload.name ^ " vm outputs") expect vm.Stackvm.Interp.outputs;
  (match vm.Stackvm.Interp.outcome with
  | Stackvm.Interp.Finished _ -> ()
  | Stackvm.Interp.Trapped { reason; _ } -> Alcotest.failf "%s vm trapped: %s" w.Workloads.Workload.name reason
  | Stackvm.Interp.Out_of_fuel -> Alcotest.failf "%s vm out of fuel" w.Workloads.Workload.name);
  let native = Nativesim.Machine.run (Workloads.Workload.native_binary w) ~input in
  Alcotest.(check (list int)) (w.Workloads.Workload.name ^ " native outputs") expect native.Nativesim.Machine.outputs;
  match native.Nativesim.Machine.outcome with
  | Nativesim.Machine.Halted -> ()
  | Nativesim.Machine.Trapped { reason; addr } ->
      Alcotest.failf "%s native trapped at 0x%x: %s" w.Workloads.Workload.name addr reason
  | Nativesim.Machine.Out_of_fuel -> Alcotest.failf "%s native out of fuel" w.Workloads.Workload.name

let test_workload (w : Workloads.Workload.t) () =
  check_one w w.Workloads.Workload.input;
  List.iter (check_one w) w.Workloads.Workload.alt_inputs

let test_spec_has_ten () = Alcotest.(check int) "ten SPEC analogs" 10 (List.length Workloads.Spec.all)

let test_workloads_produce_output () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let out = Workloads.Workload.expected_outputs w w.Workloads.Workload.input in
      Alcotest.(check bool) (w.Workloads.Workload.name ^ " prints something") true (out <> []))
    all_workloads

let test_jess_is_larger_and_colder_than_caffeine () =
  (* the Figure 8(a) contrast: Jess has much more code than CaffeineMark
     and a lower fraction of hot instructions *)
  let size w = Stackvm.Serialize.size_in_bytes (Workloads.Workload.vm_program w) in
  let caffeine = Workloads.Caffeine.suite and jess = Workloads.Jesslite.engine in
  Alcotest.(check bool) "jess bigger" true (size jess > 2 * size caffeine);
  let hot_fraction w =
    let prog = Workloads.Workload.vm_program w in
    let trace = Stackvm.Trace.capture prog ~input:w.Workloads.Workload.input in
    let hot =
      Hashtbl.fold (fun _ c acc -> if c > 16 then acc + 1 else acc) trace.Stackvm.Trace.block_counts 0
    in
    let total = max 1 (Hashtbl.length trace.Stackvm.Trace.block_counts) in
    float_of_int hot /. float_of_int total
  in
  Alcotest.(check bool) "caffeine hotter" true (hot_fraction caffeine > hot_fraction jess)

let test_spec_trace_sizes_reasonable () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let r = Nativesim.Machine.run (Workloads.Workload.native_binary w) ~input:w.Workloads.Workload.input in
      Alcotest.(check bool)
        (Printf.sprintf "%s runs %d steps" w.Workloads.Workload.name r.Nativesim.Machine.steps)
        true
        (r.Nativesim.Machine.steps > 5_000 && r.Nativesim.Machine.steps < 40_000_000))
    Workloads.Spec.all

let suite =
  List.map
    (fun (w : Workloads.Workload.t) ->
      (w.Workloads.Workload.name ^ " differential", `Quick, test_workload w))
    all_workloads
  @ [
      ("ten SPEC analogs", `Quick, test_spec_has_ten);
      ("workloads produce output", `Quick, test_workloads_produce_output);
      ("jess larger and colder than caffeine", `Quick, test_jess_is_larger_and_colder_than_caffeine);
      ("spec trace sizes reasonable", `Quick, test_spec_trace_sizes_reasonable);
    ]
