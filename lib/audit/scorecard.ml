type cell = {
  workload : string;
  passes : string list;
  marked : string list;
  flagged : string list;
  hits : string list;
  false_positives : string list;
  ndiags : int;
  hit_rate : float;
  ms : float;
  failed : string option;
}

type row = {
  scheme : string;
  track : Scheme.Watermarker.track;
  declared : float;
  cells : cell list;
  observed : float;
}

type violation = { v_scheme : string; v_workload : string; v_reason : string }

type t = { rows : row list; violations : violation list }

let default_bits = 16
let default_fingerprint = Bignum.of_int 0xBEEF
let default_key = "audit"

let cell_of_result workload (r : Engine.Batch.result) =
  match r.Engine.Batch.outcome with
  | Engine.Batch.Audited { passes; marked_fns; flagged_fns; clean_flagged; ndiags } ->
      let hits = List.filter (fun f -> List.mem f marked_fns) flagged_fns in
      let hit_rate =
        if marked_fns = [] then 0.
        else float_of_int (List.length hits) /. float_of_int (List.length marked_fns)
      in
      {
        workload;
        passes;
        marked = marked_fns;
        flagged = flagged_fns;
        hits;
        false_positives = clean_flagged;
        ndiags;
        hit_rate;
        ms = r.Engine.Batch.ms;
        failed = None;
      }
  | Engine.Batch.Failed { reason; _ } ->
      {
        workload;
        passes = [];
        marked = [];
        flagged = [];
        hits = [];
        false_positives = [];
        ndiags = 0;
        hit_rate = 0.;
        ms = r.Engine.Batch.ms;
        failed = Some reason;
      }
  | _ ->
      {
        workload;
        passes = [];
        marked = [];
        flagged = [];
        hits = [];
        false_positives = [];
        ndiags = 0;
        hit_rate = 0.;
        ms = r.Engine.Batch.ms;
        failed = Some "audit job returned a non-audit outcome";
      }

let run ?(domains = 1) ?seed ?(bits = default_bits) ?(fingerprint = default_fingerprint)
    ?(key = default_key) ~schemes ~workloads () =
  let resolved =
    List.map
      (fun name ->
        let (module W : Scheme.Watermarker.WATERMARKER) = Scheme.Builtin.find_exn name in
        (name, W.caps))
      schemes
  in
  let jobs =
    List.concat_map
      (fun (name, caps) ->
        List.map
          (fun (w : Workloads.Workload.t) ->
            let label = Printf.sprintf "audit:%s:%s" name w.Workloads.Workload.name in
            Engine.Job.make ~label ?seed ~scheme:name ~key ~bits ~input:w.Workloads.Workload.input
              (Scheme.Track.of_workload caps.Scheme.Watermarker.track w)
              (Engine.Job.Audit { fingerprint }))
          workloads)
      resolved
  in
  let results = Engine.Batch.run ~domains jobs in
  (* results arrive in job order: |workloads| cells per scheme *)
  let nw = List.length workloads in
  let rows =
    List.mapi
      (fun i (name, caps) ->
        let cells =
          if nw = 0 then []
          else
            List.filteri (fun j _ -> j / nw = i) results
            |> List.map2
                 (fun (w : Workloads.Workload.t) r -> cell_of_result w.Workloads.Workload.name r)
                 workloads
        in
        let observed = List.fold_left (fun acc c -> Float.max acc c.hit_rate) 0. cells in
        {
          scheme = name;
          track = caps.Scheme.Watermarker.track;
          declared = caps.Scheme.Watermarker.locatability;
          cells;
          observed;
        })
      resolved
  in
  let violations =
    List.concat_map
      (fun row ->
        List.concat_map
          (fun c ->
            let v reason = { v_scheme = row.scheme; v_workload = c.workload; v_reason = reason } in
            (match c.failed with
            | Some reason -> [ v (Printf.sprintf "audit job failed: %s" reason) ]
            | None -> [])
            @ (if c.hit_rate > row.declared +. 1e-9 then
                 [
                   v
                     (Printf.sprintf
                        "observed locator hit-rate %.2f exceeds declared ceiling %.2f (flagged: %s)"
                        c.hit_rate row.declared
                        (String.concat ", " c.hits));
                 ]
               else [])
            @
            if c.false_positives <> [] then
              [
                v
                  (Printf.sprintf "locator flagged clean code: %s"
                     (String.concat ", " c.false_positives));
              ]
            else [])
          row.cells)
      rows
  in
  { rows; violations }

let gate_ok t = t.violations = []

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %-10s %-8s %9s %9s %7s %6s  %s\n" "scheme" "workload" "track" "declared"
       "hit-rate" "marked" "diags" "passes");
  List.iter
    (fun row ->
      List.iter
        (fun c ->
          match c.failed with
          | Some reason ->
              Buffer.add_string buf
                (Printf.sprintf "%-12s %-10s %-8s %9s %9s %7s %6s  FAILED: %s\n" row.scheme
                   c.workload
                   (Scheme.Watermarker.track_to_string row.track)
                   "-" "-" "-" "-" reason)
          | None ->
              Buffer.add_string buf
                (Printf.sprintf "%-12s %-10s %-8s %9.2f %9.2f %7d %6d  %s\n" row.scheme c.workload
                   (Scheme.Watermarker.track_to_string row.track)
                   row.declared c.hit_rate (List.length c.marked) c.ndiags
                   (String.concat "," c.passes)))
        row.cells)
    t.rows;
  if t.violations = [] then Buffer.add_string buf "gate: ok (all schemes within declared surface)\n"
  else
    List.iter
      (fun v ->
        Buffer.add_string buf
          (Printf.sprintf "gate violation: %s on %s: %s\n" v.v_scheme v.v_workload v.v_reason))
      t.violations;
  Buffer.contents buf

(* minimal JSON writer (no JSON library in the toolchain) *)
let json_list items = "[" ^ String.concat "," items ^ "]"
let json_strs l = json_list (List.map Util.Json.str l)

let to_json t =
  let cell c =
    Printf.sprintf
      "{\"workload\":%s,\"passes\":%s,\"marked\":%s,\"flagged\":%s,\"hits\":%s,\"false_positives\":%s,\"ndiags\":%d,\"hit_rate\":%.4f%s}"
      (Util.Json.str c.workload) (json_strs c.passes) (json_strs c.marked) (json_strs c.flagged)
      (json_strs c.hits) (json_strs c.false_positives) c.ndiags c.hit_rate
      (match c.failed with None -> "" | Some r -> ",\"failed\":" ^ Util.Json.str r)
  in
  let row r =
    Printf.sprintf
      "{\"scheme\":%s,\"track\":%s,\"declared\":%.4f,\"observed\":%.4f,\"cells\":%s}"
      (Util.Json.str r.scheme)
      (Util.Json.str (Scheme.Watermarker.track_to_string r.track))
      r.declared r.observed
      (json_list (List.map cell r.cells))
  in
  let violation v =
    Printf.sprintf "{\"scheme\":%s,\"workload\":%s,\"reason\":%s}" (Util.Json.str v.v_scheme)
      (Util.Json.str v.v_workload) (Util.Json.str v.v_reason)
  in
  Printf.sprintf "{\"rows\":%s,\"violations\":%s,\"gate_ok\":%b}"
    (json_list (List.map row t.rows))
    (json_list (List.map violation t.violations))
    (gate_ok t)
