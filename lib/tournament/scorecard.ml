type cell = {
  c_scheme : string;
  c_workload : string;
  c_attack : string;
  c_plan : string;
  c_control : bool;
  c_survived : bool;
  c_false_positive : bool;
  c_confidence : float;
  c_nfaults : int;
  c_cached : bool;
  c_ms : float;
  c_failed : string option;
}

type class_stats = { cls : string; cls_total : int; cls_survived : int; cls_rate : float }

type summary = {
  marked : int;
  survived : int;
  controls : int;
  false_positives : int;
  credibility : float;
  classes : class_stats list;
  survival : float;
  composite : float;
  conf_min : float;
  conf_mean : float;
  conf_max : float;
}

type row = {
  scheme : string;
  track : Scheme.Watermarker.track;
  floor : float;
  cells : cell list;
  summary : summary;
}

type violation = { v_scheme : string; v_cell : string; v_reason : string }

type t = { rows : row list; violations : violation list }

let default_bits = 16
let default_fingerprint = Bignum.of_int 0xBEEF
let default_key = "tournament"

(* {2 The attack taxonomy} *)

let attack_class = function
  | "identity" -> "identity"
  | "targeted-strip" | "static-strip" -> "analyzer"
  | "rpg-strip" -> "graph"
  | "bypass" | "reroute" -> "layout"
  | "double-watermark" -> "collusion"
  | _ -> "distortive"

(* One representative per class keeps the default matrix tractable:
   every registered VM transformation would triple it without changing
   any class rate the composite sees.  Each track runs the names it knows
   ({!Scheme.Track.attack_names}), in this order: the VM track seven, the
   native track its whole vocabulary. *)
let default_attacks =
  [
    "identity";
    "nop-insertion";
    "noop-insertion";
    "block-reorder";
    "branch-sense-inversion";
    "goto-chaining";
    "double-watermark";
    "bypass";
    "reroute";
    "targeted-strip";
    "rpg-strip";
    "static-strip";
  ]

(* Both rates sit below the measured tolerance of either track (trace
   flips ≥ 0.005, observation garbling ≥ 0.05 start killing marks), so
   the noisy plan degrades confidence without changing survival. *)
let default_fault_plans =
  [ ("clean", []); ("noisy", [ Fault.Spec.Trace_flip 0.001; Fault.Spec.Obs_garble 0.01 ]) ]

(* {2 The reducer} *)

let summarize cells =
  let marked_cells = List.filter (fun c -> not c.c_control) cells in
  let control_cells = List.filter (fun c -> c.c_control) cells in
  let false_positives =
    List.length (List.filter (fun c -> c.c_false_positive) control_cells)
  in
  let credibility =
    match control_cells with
    | [] -> 1.0
    | _ -> 1.0 -. (float_of_int false_positives /. float_of_int (List.length control_cells))
  in
  let classes =
    List.sort_uniq compare (List.map (fun c -> attack_class c.c_attack) marked_cells)
    |> List.map (fun cls ->
           let in_cls = List.filter (fun c -> attack_class c.c_attack = cls) marked_cells in
           let cls_survived = List.length (List.filter (fun c -> c.c_survived) in_cls) in
           let cls_total = List.length in_cls in
           {
             cls;
             cls_total;
             cls_survived;
             cls_rate = float_of_int cls_survived /. float_of_int cls_total;
           })
  in
  let survival =
    match classes with
    | [] -> 0.
    | _ ->
        List.fold_left (fun acc s -> acc +. s.cls_rate) 0. classes
        /. float_of_int (List.length classes)
  in
  let confs =
    List.filter_map (fun c -> if c.c_survived then Some c.c_confidence else None) marked_cells
  in
  let conf_min, conf_mean, conf_max =
    match confs with
    | [] -> (0., 0., 0.)
    | _ ->
        ( List.fold_left Float.min 1.0 confs,
          List.fold_left ( +. ) 0. confs /. float_of_int (List.length confs),
          List.fold_left Float.max 0.0 confs )
  in
  {
    marked = List.length marked_cells;
    survived = List.length (List.filter (fun c -> c.c_survived) marked_cells);
    controls = List.length control_cells;
    false_positives;
    credibility;
    classes;
    survival;
    composite = credibility *. survival;
    conf_min;
    conf_mean;
    conf_max;
  }

(* {2 Matrix compilation and the run} *)

type meta = {
  m_scheme : string;
  m_workload : string;
  m_attack : string;
  m_plan : string;
  m_control : bool;
}

let cell_of_result meta (r : Engine.Batch.result) =
  let base survived false_positive confidence nfaults failed =
    {
      c_scheme = meta.m_scheme;
      c_workload = meta.m_workload;
      c_attack = meta.m_attack;
      c_plan = meta.m_plan;
      c_control = meta.m_control;
      c_survived = survived;
      c_false_positive = false_positive;
      c_confidence = confidence;
      c_nfaults = nfaults;
      c_cached = r.Engine.Batch.from_cache;
      c_ms = r.Engine.Batch.ms;
      c_failed = failed;
    }
  in
  match r.Engine.Batch.outcome with
  | Engine.Batch.Tournament_measured { survived; false_positive; confidence; nfaults; _ } ->
      base survived false_positive confidence nfaults None
  | Engine.Batch.Failed { reason; _ } -> base false false 0. 0 (Some reason)
  | _ -> base false false 0. 0 (Some "tournament job returned a non-tournament outcome")

let run ?(domains = 1) ?seed ?(bits = default_bits) ?(fingerprint = default_fingerprint)
    ?(key = default_key) ?attacks ?(fault_plans = default_fault_plans) ?(fault_seed = 1L) ?cache
    ?events ~schemes ~workloads () =
  if fault_plans = [] then invalid_arg "Tournament.Scorecard.run: empty fault-plan list";
  let known =
    List.concat_map Scheme.Track.attack_names [ Scheme.Watermarker.Vm; Scheme.Watermarker.Native ]
  in
  let attacks = Option.value attacks ~default:default_attacks in
  List.iter
    (fun a ->
      if not (List.mem a known) then
        invalid_arg (Printf.sprintf "Tournament.Scorecard.run: unknown attack %S" a))
    attacks;
  let resolved =
    List.map
      (fun name ->
        let (module W : Scheme.Watermarker.WATERMARKER) = Scheme.Builtin.find_exn name in
        (name, W.caps))
      schemes
  in
  let attacks_for track = List.filter (fun a -> List.mem a (Scheme.Track.attack_names track)) attacks in
  let jobs =
    List.concat_map
      (fun (name, (caps : Scheme.Watermarker.caps)) ->
        let track = caps.Scheme.Watermarker.track in
        List.concat_map
          (fun (w : Workloads.Workload.t) ->
            let wname = w.Workloads.Workload.name in
            let input = w.Workloads.Workload.input in
            List.concat_map
              (fun (plan_name, faults) ->
                let make_job ~control ~attack =
                  let label =
                    Printf.sprintf "cell:%s:%s:%s:%s%s" name wname attack plan_name
                      (if control then ":control" else "")
                  in
                  let cell =
                    Engine.Job.cell_spec ~control ~fault_seed ~faults ~fingerprint ~attack ()
                  in
                  let meta =
                    {
                      m_scheme = name;
                      m_workload = wname;
                      m_attack = attack;
                      m_plan = plan_name;
                      m_control = control;
                    }
                  in
                  ( meta,
                    Engine.Job.make ~label ?seed ~scheme:name ~key ~bits ~input
                      (Scheme.Track.of_workload track w) (Engine.Job.Tournament_cell cell) )
                in
                (* one unmarked credibility control per scheme × workload ×
                   plan, then one marked cell per attack *)
                make_job ~control:true ~attack:"identity"
                :: List.map (fun attack -> make_job ~control:false ~attack) (attacks_for track))
              fault_plans)
          workloads)
      resolved
  in
  let metas = List.map fst jobs in
  let results = Engine.Batch.run ~domains ?cache ?events (List.map snd jobs) in
  let cells = List.map2 cell_of_result metas results in
  (match events with
  | None -> ()
  | Some e ->
      List.iteri
        (fun i c ->
          Engine.Events.emit e
            (Engine.Events.Tournament_cell_done
               {
                 id = i;
                 scheme = c.c_scheme;
                 workload = c.c_workload;
                 attack = c.c_attack;
                 survived = c.c_survived;
                 cached = c.c_cached;
               }))
        cells);
  let rows =
    List.map
      (fun (name, (caps : Scheme.Watermarker.caps)) ->
        let cells = List.filter (fun c -> c.c_scheme = name) cells in
        let summary = summarize cells in
        let row =
          {
            scheme = name;
            track = caps.Scheme.Watermarker.track;
            floor = caps.Scheme.Watermarker.resilience_floor;
            cells;
            summary;
          }
        in
        (match events with
        | None -> ()
        | Some e ->
            Engine.Events.emit e
              (Engine.Events.Tournament_gate
                 {
                   scheme = name;
                   composite = summary.composite;
                   floor = row.floor;
                   ok = summary.marked = 0 || summary.composite +. 1e-9 >= row.floor;
                 }));
        row)
      resolved
  in
  let violations =
    List.concat_map
      (fun row ->
        let cell_violations =
          List.concat_map
            (fun c ->
              let where =
                Printf.sprintf "%s/%s/%s%s" c.c_workload c.c_attack c.c_plan
                  (if c.c_control then " (control)" else "")
              in
              let v reason = { v_scheme = row.scheme; v_cell = where; v_reason = reason } in
              (match c.c_failed with
              | Some reason -> [ v (Printf.sprintf "cell failed: %s" reason) ]
              | None -> [])
              @
              if c.c_false_positive then
                [ v "control cell recovered the fingerprint from the unmarked program" ]
              else [])
            row.cells
        in
        let gate_violations =
          (* a row with no marked cells measured nothing — no gate basis *)
          if row.summary.marked > 0 && row.summary.composite +. 1e-9 < row.floor then
            [
              {
                v_scheme = row.scheme;
                v_cell = "composite";
                v_reason =
                  Printf.sprintf
                    "measured composite resilience %.3f falls below the declared floor %.2f"
                    row.summary.composite row.floor;
              };
            ]
          else []
        in
        cell_violations @ gate_violations)
      rows
  in
  { rows; violations }

let gate_ok t = t.violations = []

(* {2 Rendering} *)

let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %-8s %6s %6s %11s %8s %9s %6s  %s\n" "scheme" "track" "cells" "alive"
       "credibility" "survival" "composite" "floor" "per-class survival");
  List.iter
    (fun row ->
      let s = row.summary in
      Buffer.add_string buf
        (Printf.sprintf "%-12s %-8s %6d %6d %11.2f %8.2f %9.3f %6.2f  %s\n" row.scheme
           (Scheme.Watermarker.track_to_string row.track)
           s.marked s.survived s.credibility s.survival s.composite row.floor
           (String.concat " "
              (List.map
                 (fun c -> Printf.sprintf "%s=%d/%d" c.cls c.cls_survived c.cls_total)
                 s.classes))))
    t.rows;
  List.iter
    (fun row ->
      let s = row.summary in
      if s.survived > 0 then
        Buffer.add_string buf
          (Printf.sprintf "confidence %-12s min %.2f  mean %.2f  max %.2f\n" row.scheme s.conf_min
             s.conf_mean s.conf_max))
    t.rows;
  if t.violations = [] then
    Buffer.add_string buf "gate: ok (every scheme at or above its declared resilience floor)\n"
  else
    List.iter
      (fun v ->
        Buffer.add_string buf
          (Printf.sprintf "gate violation: %s [%s]: %s\n" v.v_scheme v.v_cell v.v_reason))
      t.violations;
  Buffer.contents buf

(* minimal JSON writer (no JSON library in the toolchain) *)
let json_list items = "[" ^ String.concat "," items ^ "]"

let to_json t =
  let cell c =
    Printf.sprintf
      "{\"workload\":%s,\"attack\":%s,\"plan\":%s,\"control\":%b,\"survived\":%b,\"false_positive\":%b,\"confidence\":%.4f,\"nfaults\":%d,\"cached\":%b%s}"
      (Util.Json.str c.c_workload) (Util.Json.str c.c_attack) (Util.Json.str c.c_plan) c.c_control c.c_survived
      c.c_false_positive c.c_confidence c.c_nfaults c.c_cached
      (match c.c_failed with None -> "" | Some r -> ",\"failed\":" ^ Util.Json.str r)
  in
  let class_stats s =
    Printf.sprintf "{\"class\":%s,\"survived\":%d,\"total\":%d,\"rate\":%.4f}" (Util.Json.str s.cls)
      s.cls_survived s.cls_total s.cls_rate
  in
  let row r =
    let s = r.summary in
    Printf.sprintf
      "{\"scheme\":%s,\"track\":%s,\"floor\":%.4f,\"composite\":%.4f,\"credibility\":%.4f,\"survival\":%.4f,\"marked\":%d,\"survived\":%d,\"controls\":%d,\"false_positives\":%d,\"confidence\":{\"min\":%.4f,\"mean\":%.4f,\"max\":%.4f},\"classes\":%s,\"cells\":%s}"
      (Util.Json.str r.scheme)
      (Util.Json.str (Scheme.Watermarker.track_to_string r.track))
      r.floor s.composite s.credibility s.survival s.marked s.survived s.controls
      s.false_positives s.conf_min s.conf_mean s.conf_max
      (json_list (List.map class_stats s.classes))
      (json_list (List.map cell r.cells))
  in
  let violation v =
    Printf.sprintf "{\"scheme\":%s,\"cell\":%s,\"reason\":%s}" (Util.Json.str v.v_scheme)
      (Util.Json.str v.v_cell) (Util.Json.str v.v_reason)
  in
  let all_cells = List.concat_map (fun r -> r.cells) t.rows in
  Printf.sprintf "{\"rows\":%s,\"violations\":%s,\"gate_ok\":%b,\"cells\":%d,\"cached_cells\":%d}"
    (json_list (List.map row t.rows))
    (json_list (List.map violation t.violations))
    (gate_ok t) (List.length all_cells)
    (List.length (List.filter (fun c -> c.c_cached) all_cells))
