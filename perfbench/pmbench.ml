(* The benchmark's entry point: runs one workload for one seed and prints
   its metrics, ending with one JSON line
   {"correct", "attempted", "failed", "metrics"}.  See README.md. *)

open Common

let usage =
  "pmbench --workload recognize-corpus|embed-fleet|service-mix --seed N --seconds S --trace 0|1 --cli PATH \
   --workdir DIR [--nproc N] [--commit C]"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_object fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let plan_text = function
  | "recognize-corpus" -> Corpus.plan_text
  | "embed-fleet" -> Fleet.plan_text
  | "service-mix" -> Svc.plan_text
  | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2

let plan_digest ~workload ~seed ~seconds = Digest.to_hex (Digest.string (plan_text workload ~seed ~seconds))

(* The same plan digest computed by a separate process of this program:
   nothing but the seed may decide the plan. *)
let plan_digest_elsewhere ~workload ~seed ~seconds =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%.17g" seconds; "--plan-digest" |]
  in
  let line = try input_line ic with End_of_file -> "" in
  ignore (Unix.close_process_in ic);
  line

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and digest_only = ref false in
  let cli = ref "" and workdir = ref ".bench_run" and nproc = ref "" and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--cli", Arg.Set_string cli, "PATH to pathmark_cli.exe (service-mix)");
      ("--workdir", Arg.Set_string workdir, "DIR for server roots, sockets and span files");
      ("--nproc", Arg.Set_string nproc, "N online CPUs, recorded in the result");
      ("--commit", Arg.Set_string commit, "C source revision, recorded in the result");
      ("--plan-digest", Arg.Set digest_only, " print the digest of the seed's plan and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !digest_only then begin
    print_endline (plan_digest ~workload:!workload ~seed:!seed ~seconds:!seconds);
    exit 0
  end;
  let trace = !trace = 1 in
  (try Unix.mkdir !workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* set-ups cost most where the corpus is embedded; the cheap ones are
     repeated more for a steadier median *)
  let r =
    match !workload with
    | "recognize-corpus" -> Corpus.run ~seed:!seed ~seconds:!seconds ~trace ~setups:7
    | "embed-fleet" -> Fleet.run ~seed:!seed ~seconds:!seconds ~trace ~setups:15
    | "service-mix" ->
        if !cli = "" then (prerr_endline "service-mix needs --cli"; exit 2);
        Svc.run ~cli:!cli ~workdir:!workdir ~seed:!seed ~seconds:!seconds ~trace ~setups:15
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  let r = if trace then { r with metrics = complete_per_layer r.metrics } else r in
  let t = r.tally in
  (* the generator: the same seed gives the same plan in another process,
     and another seed another plan *)
  let digest = plan_digest ~workload:!workload ~seed:!seed ~seconds:!seconds in
  check t "plan.same_seed_identical_in_another_process"
    (digest = plan_digest_elsewhere ~workload:!workload ~seed:!seed ~seconds:!seconds);
  check t "plan.other_seed_differs" (digest <> plan_digest ~workload:!workload ~seed:(!seed + 1) ~seconds:!seconds);
  let r = { r with info = ("plan_digest", digest) :: r.info } in
  let checks_ok = List.for_all snd t.checks in
  let env =
    [
      ("workload", json_string !workload);
      ("seed", string_of_int !seed);
      ("seconds", json_number !seconds);
      ("trace", string_of_bool trace);
      ("nproc", json_string !nproc);
      ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("commit", json_string !commit);
    ]
  in
  let counts =
    [
      ("attempted", string_of_int t.attempted);
      ("wrong", string_of_int t.wrong);
      ("missing", string_of_int t.missing);
      ("false_positive", string_of_int t.false_positive);
      ("errors", string_of_int t.errors);
    ]
  in
  let info = List.map (fun (k, v) -> (k, json_string v)) r.info in
  let checks = List.map (fun (k, ok) -> (k, string_of_bool ok)) t.checks in
  let metrics_json =
    json_object
      (List.map
         (fun m -> (m.name, json_object [ ("value", json_number m.value); ("unit", json_string m.unit_) ]))
         r.metrics)
  in
  let record =
    json_object
      [
        ("env", json_object env);
        ("counts", json_object counts);
        ("info", json_object info);
        ("checks", json_object checks);
        ("metrics", metrics_json);
        ( "samples",
          "[" ^ String.concat ", " (List.map (fun (c, ms) -> Printf.sprintf "[%s, %s]" (json_string c) (json_number ms)) r.samples) ^ "]" );
      ]
  in
  let base = Filename.concat !workdir (Printf.sprintf "%s-seed%d-trace%d" !workload !seed (if trace then 1 else 0)) in
  if trace then Spans.write (base ^ ".spans.jsonl") ~meta:(json_object [ ("env", json_object env) ]);
  let oc = open_out (base ^ ".json") in
  output_string oc (record ^ "\n");
  close_out oc;
  Printf.printf "%s seed %d: %d attempted, %d failed (%d wrong, %d missing, %d false positive, %d errors)\n"
    !workload !seed t.attempted (failed t) t.wrong t.missing t.false_positive t.errors;
  List.iter (fun (k, ok) -> Printf.printf "check %-40s %s\n" k (if ok then "ok" else "FAILED")) t.checks;
  List.iter (fun (k, v) -> Printf.printf "info  %-40s %s\n" k v) r.info;
  List.iter (fun m -> Printf.printf "%-44s %14.4f %s\n" m.name m.value m.unit_) r.metrics;
  print_endline
    (json_object [ ("env", json_object env); ("counts", json_object counts); ("checks", json_object checks) ]);
  print_endline
    (json_object
       [
         ("correct", string_of_bool (checks_ok && failed t = 0));
         ("attempted", string_of_int t.attempted);
         ("failed", string_of_int (failed t));
         ("metrics", metrics_json);
       ])
