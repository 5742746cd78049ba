(* Tests for lib/audit: the stealth scorecard end-to-end — audit jobs
   through Engine.Batch, hit-rate scoring against declared locatability,
   the gate, and the JSON rendering the bench/CI artifact uses. *)

let card =
  lazy
    (Audit.Scorecard.run ~seed:99L ~bits:16
       ~schemes:[ "jwm"; "nwm"; "gwm"; "jwm+gwm" ]
       ~workloads:[ Workloads.Caffeine.suite ] ())

let row scheme =
  List.find (fun (r : Audit.Scorecard.row) -> r.Audit.Scorecard.scheme = scheme)
    (Lazy.force card).Audit.Scorecard.rows

let test_gate_holds_for_builtins () =
  let c = Lazy.force card in
  Alcotest.(check bool) "gate ok" true (Audit.Scorecard.gate_ok c);
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun (v : Audit.Scorecard.violation) -> v.Audit.Scorecard.v_reason) c.Audit.Scorecard.violations)

let test_cells_have_ground_truth () =
  List.iter
    (fun scheme ->
      let r = row scheme in
      Alcotest.(check int) (scheme ^ " one cell") 1 (List.length r.Audit.Scorecard.cells);
      List.iter
        (fun (c : Audit.Scorecard.cell) ->
          Alcotest.(check (option string)) (scheme ^ " cell ran") None c.Audit.Scorecard.failed;
          Alcotest.(check bool) (scheme ^ " found marked functions") true
            (c.Audit.Scorecard.marked <> []);
          Alcotest.(check (list string)) (scheme ^ " clean stays silent") []
            c.Audit.Scorecard.false_positives)
        r.Audit.Scorecard.cells)
    [ "jwm"; "nwm"; "gwm"; "jwm+gwm" ]

let test_observed_within_declared () =
  List.iter
    (fun scheme ->
      let r = row scheme in
      Alcotest.(check bool)
        (Printf.sprintf "%s observed %.2f <= declared %.2f" scheme r.Audit.Scorecard.observed
           r.Audit.Scorecard.declared)
        true
        (r.Audit.Scorecard.observed <= r.Audit.Scorecard.declared +. 1e-9))
    [ "jwm"; "nwm"; "gwm"; "jwm+gwm" ]

let test_locators_actually_locate () =
  (* the scorecard is only meaningful if the passes find something: jwm's
     vmlint catches every piece generator, gwm's rpg pass implicates the
     walker *)
  Alcotest.(check bool) "jwm fully locatable in default mode" true
    ((row "jwm").Audit.Scorecard.observed >= 0.999);
  Alcotest.(check bool) "gwm walker located" true ((row "gwm").Audit.Scorecard.observed > 0.)

let test_json_rendering () =
  let json = Audit.Scorecard.to_json (Lazy.force card) in
  Alcotest.(check bool) "nonempty" true (String.length json > 2);
  let has needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) ("contains " ^ needle) true (has needle))
    [ "\"rows\""; "\"gate_ok\""; "\"jwm+gwm\""; "\"hit_rate\"" ]

(* No wall-clock figure in the JSON: the same pinned audit renders the
   same bytes. *)
let test_json_deterministic () =
  let render () =
    Audit.Scorecard.to_json
      (Audit.Scorecard.run ~seed:5L ~bits:16 ~schemes:[ "jwm"; "gwm" ]
         ~workloads:[ List.hd Workloads.Caffeine.kernels ] ())
  in
  let first = render () in
  Alcotest.(check string) "byte-identical across runs" first (render ())

let test_audited_outcome_roundtrip () =
  let outcome =
    Engine.Batch.Audited
      {
        passes = [ "vmlint"; "loops" ];
        marked_fns = [ "f"; "g" ];
        flagged_fns = [ "f" ];
        clean_flagged = [];
        ndiags = 3;
      }
  in
  let decoded = Engine.Batch.decode_outcome (Engine.Batch.encode_outcome outcome) in
  Alcotest.(check bool) "roundtrips" true (decoded = Some outcome)

let suite =
  [
    ("audit gate holds for the builtin schemes", `Slow, test_gate_holds_for_builtins);
    ("cells carry ground truth and stay clean-silent", `Slow, test_cells_have_ground_truth);
    ("observed hit rates within declared ceilings", `Slow, test_observed_within_declared);
    ("locators actually locate", `Slow, test_locators_actually_locate);
    ("scorecard JSON rendering", `Slow, test_json_rendering);
    ("Audited outcome encode/decode roundtrip", `Quick, test_audited_outcome_roundtrip);
    ("scorecard JSON is byte-identical across runs", `Slow, test_json_deterministic);
  ]
