(* Tests for lib/tournament: the pure reducer (qcheck monotonicity of
   the composite), identity-cell sanity on clean runs, the pinned-seed
   end-to-end matrix with cell caching, and the Tournament_measured
   outcome codec. *)

open Tournament

(* ---- generators for the pure reducer ---- *)

let attack_pool =
  [
    "identity";
    "nop-insertion";
    "block-reorder";
    "targeted-strip";
    "rpg-strip";
    "bypass";
    "double-watermark";
  ]

let mk_cell ~attack ~control ~survived ~fp ~conf =
  {
    Scorecard.c_scheme = "x";
    c_workload = "w";
    c_attack = attack;
    c_plan = "clean";
    c_control = control;
    c_survived = survived;
    c_false_positive = fp;
    c_confidence = conf;
    c_nfaults = 0;
    c_cached = false;
    c_ms = 1.0;
    c_failed = None;
  }

let gen_cells =
  QCheck.Gen.(
    list_size (int_range 1 24)
      (map3
         (fun ai (control, fp) (survived, conf) ->
           let attack = List.nth attack_pool (ai mod List.length attack_pool) in
           if control then mk_cell ~attack:"identity" ~control:true ~survived:false ~fp ~conf:0.
           else mk_cell ~attack ~control:false ~survived ~fp:false ~conf)
         (int_range 0 (List.length attack_pool - 1))
         (pair bool bool)
         (pair bool (float_range 0.1 1.0))))

let arb_cells = QCheck.make ~print:(fun cs -> string_of_int (List.length cs)) gen_cells

(* Flipping any marked non-surviving cell to surviving never lowers the
   composite: the cell's class rate rises, every other class rate is
   untouched, and credibility only looks at controls. *)
let qcheck_composite_monotone =
  QCheck.Test.make ~name:"composite is monotone in per-cell survival" ~count:300
    QCheck.(pair arb_cells small_nat)
    (fun (cells, pick) ->
      let dead =
        List.filter
          (fun c -> (not c.Scorecard.c_control) && not c.Scorecard.c_survived)
          cells
      in
      QCheck.assume (dead <> []);
      let target = List.nth dead (pick mod List.length dead) in
      let flipped =
        List.map
          (fun c -> if c == target then { c with Scorecard.c_survived = true } else c)
          cells
      in
      let before = (Scorecard.summarize cells).Scorecard.composite in
      let after = (Scorecard.summarize flipped).Scorecard.composite in
      after >= before -. 1e-12)

(* Sanity for the generator-independent algebra: credibility is exactly
   1 - fp/controls and the composite never exceeds either factor. *)
let qcheck_composite_bounded =
  QCheck.Test.make ~name:"composite bounded by credibility and survival" ~count:300 arb_cells
    (fun cells ->
      let s = Scorecard.summarize cells in
      s.Scorecard.composite <= s.Scorecard.credibility +. 1e-12
      && s.Scorecard.composite <= s.Scorecard.survival +. 1e-12
      && s.Scorecard.composite >= 0.)

(* ---- live matrix runs (pinned seeds) ---- *)

let kernel n = List.nth Workloads.Caffeine.kernels n

(* jwm's recognizer misdecodes a stray piece at some seeds (see
   bench/main.ml); seed 1 is verified clean for this matrix, so any
   identity failure here is a real tournament regression. *)
let test_identity_survives_clean_runs () =
  let card =
    Scorecard.run ~seed:1L
      ~attacks:[ "identity" ]
      ~fault_plans:[ ("clean", []) ]
      ~schemes:[ "jwm"; "gwm"; "nwm" ]
      ~workloads:[ kernel 0 ] ()
  in
  List.iter
    (fun (r : Scorecard.row) ->
      List.iter
        (fun (c : Scorecard.cell) ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s %s cell ran" r.Scorecard.scheme c.Scorecard.c_attack)
            None c.Scorecard.c_failed;
          if not c.Scorecard.c_control then
            Alcotest.(check bool)
              (Printf.sprintf "%s identity cell survives" r.Scorecard.scheme)
              true c.Scorecard.c_survived
          else
            Alcotest.(check bool)
              (Printf.sprintf "%s control stays silent" r.Scorecard.scheme)
              false c.Scorecard.c_false_positive)
        r.Scorecard.cells)
    card.Scorecard.rows;
  Alcotest.(check bool) "gate ok" true (Scorecard.gate_ok card)

(* 2 schemes x 2 workloads x 3 attacks x 2 fault plans, pinned seed,
   shared cache.  The rerun must reproduce every score exactly and be
   served from the cell cache. *)
let test_pinned_matrix_stable_and_cached () =
  let cache = Engine.Cache.create () in
  let go () =
    Scorecard.run ~seed:7L ~cache
      ~attacks:[ "identity"; "nop-insertion"; "targeted-strip" ]
      ~fault_plans:Scorecard.default_fault_plans
      ~schemes:[ "jwm"; "gwm" ]
      ~workloads:[ kernel 0; kernel 1 ] ()
  in
  let first = go () in
  let second = go () in
  let scores (card : Scorecard.t) =
    List.map
      (fun (r : Scorecard.row) ->
        let s = r.Scorecard.summary in
        ( r.Scorecard.scheme,
          s.Scorecard.composite,
          s.Scorecard.survived,
          s.Scorecard.false_positives ))
      card.Scorecard.rows
  in
  (* 2 workloads x 2 plans x (1 control + 3 marked) = 16 cells per scheme *)
  List.iter
    (fun (r : Scorecard.row) ->
      Alcotest.(check int) (r.Scorecard.scheme ^ " cell count") 16
        (List.length r.Scorecard.cells))
    first.Scorecard.rows;
  Alcotest.(check bool) "scorecards identical across reruns" true
    (scores first = scores second);
  Alcotest.(check (list string)) "no violations"
    []
    (List.map (fun (v : Scorecard.violation) -> v.Scorecard.v_reason) first.Scorecard.violations);
  let cached (card : Scorecard.t) =
    List.concat_map (fun (r : Scorecard.row) -> r.Scorecard.cells) card.Scorecard.rows
    |> List.filter (fun (c : Scorecard.cell) -> c.Scorecard.c_cached)
    |> List.length
  in
  Alcotest.(check int) "first run computes every cell" 0 (cached first);
  Alcotest.(check int) "rerun serves every cell from the cache" 32 (cached second)

(* The native matrix on one kernel, as the tournament builds it: every
   native attack, the control cell, the clean and the noisy plan.  Each
   cell's survival, false positive, confidence and fault count are
   pinned, so any change in how a native cell embeds, attacks or
   recognizes shows up here.  MiniC numbers native labels per program,
   so the kernel's bytes, and with them the salt of every garbled
   observation, do not depend on the tests that ran first. *)
let test_native_matrix_pinned () =
  let w = kernel 0 in
  let input = w.Workloads.Workload.input in
  let program = Scheme.Watermarker.Native_source (Workloads.Workload.native_program w) in
  let cells =
    List.concat_map
      (fun (plan, faults) ->
        List.map
          (fun (control, attack) ->
            let cell =
              Engine.Job.cell_spec ~control ~faults ~fingerprint:Scorecard.default_fingerprint ~attack ()
            in
            ( Printf.sprintf "%s/%s%s" attack plan (if control then "/control" else ""),
              Engine.Job.make ~scheme:"nwm" ~key:Scorecard.default_key ~bits:Scorecard.default_bits
                ~input program (Engine.Job.Tournament_cell cell) ))
          ((true, "identity")
          :: List.map
               (fun a -> (false, a))
               [
                 "identity";
                 "noop-insertion";
                 "branch-sense-inversion";
                 "double-watermark";
                 "bypass";
                 "reroute";
                 "static-strip";
               ]))
      Scorecard.default_fault_plans
  in
  let show name (r : Engine.Batch.result) =
    match r.Engine.Batch.outcome with
    | Engine.Batch.Tournament_measured { survived; false_positive; confidence; nfaults; _ } ->
        Printf.sprintf "%s: survived=%b fp=%b conf=%.4f nfaults=%d" name survived false_positive
          confidence nfaults
    | o -> Printf.sprintf "%s: %s" name (Engine.Batch.describe_outcome o)
  in
  Alcotest.(check (list string))
    "nwm cells on caffeine-sieve"
    [
      "identity/clean/control: survived=false fp=false conf=0.0000 nfaults=0";
      "identity/clean: survived=true fp=false conf=1.0000 nfaults=0";
      "noop-insertion/clean: survived=false fp=false conf=1.0000 nfaults=0";
      "branch-sense-inversion/clean: survived=true fp=false conf=1.0000 nfaults=0";
      "double-watermark/clean: survived=false fp=false conf=1.0000 nfaults=0";
      "bypass/clean: survived=false fp=false conf=0.0000 nfaults=0";
      "reroute/clean: survived=true fp=false conf=1.0000 nfaults=0";
      "static-strip/clean: survived=false fp=false conf=0.0000 nfaults=0";
      "identity/noisy/control: survived=false fp=false conf=0.0000 nfaults=1";
      "identity/noisy: survived=true fp=false conf=0.9882 nfaults=1";
      "noop-insertion/noisy: survived=false fp=false conf=1.0000 nfaults=1";
      "branch-sense-inversion/noisy: survived=true fp=false conf=0.9765 nfaults=1";
      "double-watermark/noisy: survived=false fp=false conf=1.0000 nfaults=1";
      "bypass/noisy: survived=false fp=false conf=0.0000 nfaults=1";
      "reroute/noisy: survived=true fp=false conf=0.9882 nfaults=1";
      "static-strip/noisy: survived=false fp=false conf=0.0000 nfaults=1";
    ]
    (List.map2 show (List.map fst cells) (Engine.Batch.run (List.map snd cells)))

let test_json_rendering () =
  let card =
    Scorecard.run ~seed:1L ~attacks:[ "identity" ] ~fault_plans:[ ("clean", []) ]
      ~schemes:[ "gwm" ] ~workloads:[ kernel 0 ] ()
  in
  let json = Scorecard.to_json card in
  let has needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) ("contains " ^ needle) true (has needle))
    [ "\"rows\""; "\"gate_ok\""; "\"composite\""; "\"credibility\""; "\"cached_cells\"" ]

(* The JSON carries no wall-clock figure (per-cell time goes to the
   --events stream), so the same pinned matrix renders the same bytes. *)
let test_json_deterministic () =
  let render () =
    Scorecard.to_json
      (Scorecard.run ~seed:3L ~attacks:[ "identity"; "nop-insertion" ]
         ~fault_plans:[ ("clean", []) ] ~schemes:[ "jwm"; "gwm" ] ~workloads:[ kernel 1 ] ())
  in
  let first = render () in
  Alcotest.(check string) "byte-identical across runs" first (render ())

let test_unknown_attack_rejected () =
  Alcotest.check_raises "unknown attack"
    (Invalid_argument "Tournament.Scorecard.run: unknown attack \"frobnicate\"") (fun () ->
      ignore
        (Scorecard.run ~attacks:[ "frobnicate" ] ~schemes:[ "gwm" ] ~workloads:[ kernel 0 ] ()))

let test_tournament_outcome_roundtrip () =
  List.iter
    (fun outcome ->
      let decoded = Engine.Batch.decode_outcome (Engine.Batch.encode_outcome outcome) in
      Alcotest.(check bool) "roundtrips" true (decoded = Some outcome))
    [
      Engine.Batch.Tournament_measured
        {
          attack = "targeted-strip";
          control = false;
          survived = true;
          false_positive = false;
          confidence = 0.98765;
          nfaults = 2;
        };
      Engine.Batch.Tournament_measured
        {
          attack = "identity";
          control = true;
          survived = false;
          false_positive = true;
          confidence = 0.;
          nfaults = 0;
        };
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_composite_monotone;
    QCheck_alcotest.to_alcotest qcheck_composite_bounded;
    ("identity cells survive clean runs", `Slow, test_identity_survives_clean_runs);
    ("pinned matrix is stable and cell-cached on rerun", `Slow, test_pinned_matrix_stable_and_cached);
    ("scorecard JSON rendering", `Slow, test_json_rendering);
    ("unknown attack name rejected", `Quick, test_unknown_attack_rejected);
    ("Tournament_measured outcome encode/decode roundtrip", `Quick, test_tournament_outcome_roundtrip);
    ("scorecard JSON is byte-identical across runs", `Slow, test_json_deterministic);
    ("native matrix pinned on one kernel", `Slow, test_native_matrix_pinned);
  ]
