(* service-mix: a registry client talking to a real `pathmark serve`.

   The server runs as a child process with a fresh root and default flags
   (fsync on, 2 compute domains); the benchmark holds one connection and
   sends one request at a time.  The mix is 2:2:1 —
   - [Embed] (the write path): jwm or gwm into a small host, which
     appends to the fsync'd journal;
   - [Recognize] of a stored digest (the read path): a blob read, then
     compute;
   - [Recognize] of unmarked suspect bytes.
   This is the only workload that crosses the wire codec, the journal,
   the blob reads and the per-request pool hand-off. *)

open Pathmark
open Common

type kind = Embed | Recognize_stored | Recognize_bytes

let kind_name = function
  | Embed -> "embed"
  | Recognize_stored -> "recognize_stored"
  | Recognize_bytes -> "recognize_bytes"

let kinds = [ Embed; Recognize_stored; Recognize_bytes ]
let bits = 64

(* the small hosts, the CaffeineMark kernels and MiniInterp, then Jess,
   which is only ever an unmarked suspect *)
let host_workloads () =
  Workloads.Caffeine.kernels @ [ Workloads.Miniinterp.interpreter; Workloads.Jesslite.engine ]

type item = {
  pass : int;
  kind : kind;
  host : int;
  scheme : string;
  key : string;
  mark : Bignum.t option;
  seed : int64;
  source : int;  (** for [Recognize_stored]: the index of the embed it reads back *)
}

(* Unmarked suspects are recognized with jwm: gwm reports the fingerprint
   0 from an unmarked program under roughly one key in a few hundred,
   which would fail runs on a known defect rather than measure. *)
let unmarked_scheme = "jwm"

(* One pass: per host, a jwm and a gwm embed, a read-back of each, and one
   recognition of the unmarked host — drawn in a seeded order in which
   every read-back comes after its embed. *)
let plan ~seed ~passes =
  let r = rng ~seed ~stream:5 in
  let nh = List.length (host_workloads ()) in
  let out = ref [] and n = ref 0 in
  for pass = 0 to passes - 1 do
    let pending = ref [] in
    for host = 0 to nh - 1 do
      if host < nh - 1 then
        List.iter
          (fun scheme ->
            pending :=
              `Embed { pass; kind = Embed; host; scheme; key = key r; mark = Some (fingerprint r bits); seed = next r; source = -1 }
              :: !pending)
          [ "jwm"; "gwm" ];
      pending :=
        `Ready { pass; kind = Recognize_bytes; host; scheme = unmarked_scheme; key = key r; mark = None; seed = 0L; source = -1 }
        :: !pending
    done;
    let pool = ref (Array.of_list (List.rev !pending)) in
    while Array.length !pool > 0 do
      let k = below r (Array.length !pool) in
      let chosen = !pool.(k) in
      let rest = Array.of_list (List.filteri (fun i _ -> i <> k) (Array.to_list !pool)) in
      (match chosen with
      | `Embed e ->
          let id = !n in
          out := e :: !out;
          incr n;
          pool := Array.append rest [| `Ready { e with kind = Recognize_stored; source = id } |]
      | `Ready i ->
          out := i :: !out;
          incr n;
          pool := rest)
    done
  done;
  List.rev !out

let class_of i = Printf.sprintf "%s/%d/%s" (kind_name i.kind) i.host i.scheme

let describe i =
  Printf.sprintf "%d %s %d %s %s %s %Ld %d" i.pass (kind_name i.kind) i.host i.scheme i.key
    (match i.mark with Some m -> Bignum.to_string m | None -> "-")
    i.seed i.source

let pieces_for scheme = if scheme = "jwm" then 20 else Scheme.Watermarker.default_redundancy

let request ~hosts ~digests (i : item) =
  let w, bytes = hosts.(i.host) in
  let input = w.Workloads.Workload.input in
  match i.kind with
  | Embed ->
      Service.Proto.Embed
        {
          scheme = i.scheme;
          program = bytes;
          key = i.key;
          bits;
          pieces = pieces_for i.scheme;
          fingerprint = Option.get i.mark;
          input;
          seed = i.seed;
        }
  | Recognize_stored ->
      Service.Proto.Recognize { scheme = i.scheme; source = `Stored digests.(i.source); key = i.key; bits; input }
  | Recognize_bytes -> Service.Proto.Recognize { scheme = i.scheme; source = `Bytes bytes; key = i.key; bits; input }

(* Judge one response; an embed records the digest its read-back uses. *)
let judge_response t ~digests n (i : item) = function
  | Ok (Service.Proto.Embedded { digest; _ }) when i.kind = Embed ->
      t.attempted <- t.attempted + 1;
      digests.(n) <- digest
  | Ok (Service.Proto.Recognized { value; registered; _ }) when i.kind <> Embed ->
      (* a stored program must come back linked to its registry entry *)
      if i.kind = Recognize_stored && registered = None then begin
        t.attempted <- t.attempted + 1;
        t.errors <- t.errors + 1
      end
      else judge t ~expected:i.mark (Ok value)
  | Ok _ | Error _ ->
      t.attempted <- t.attempted + 1;
      t.errors <- t.errors + 1

(* ---- the server child process ---- *)

type server = { pid : int; socket : string; dir : string }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let live : server list ref = ref []

let start ~cli ~dir =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "pm.sock" in
  let log = Unix.openfile (Filename.concat dir "server.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--root"; Filename.concat dir "root"; "--socket"; socket |]
      Unix.stdin log log
  in
  Unix.close log;
  let s = { pid; socket; dir } in
  live := s :: !live;
  s

let wait_exit ?(grace = 10.0) s =
  let deadline = now () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] s.pid)
        end
        else begin
          Unix.sleepf 0.01;
          go ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (fun x -> x.pid <> s.pid) !live

let stop s client =
  (try ignore (Service.Client.call ~deadline:10.0 client Service.Proto.Shutdown) with _ -> ());
  Service.Client.close client;
  wait_exit s;
  rm_rf s.dir

(* any server still alive when the benchmark exits is drained, then killed *)
let () =
  at_exit (fun () ->
      List.iter
        (fun s ->
          (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
          wait_exit ~grace:5.0 s;
          rm_rf s.dir)
        !live)

(* Start a server and wait for its first answer. *)
let launch ~cli ~dir =
  let s = start ~cli ~dir in
  (* a fine first retry step, so the server's start-up time is not hidden
     behind a coarse backoff sleep *)
  let client = Service.Client.connect ~deadline:30.0 ~base_backoff:0.001 s.socket in
  match Service.Client.call ~deadline:30.0 client Service.Proto.Ping with
  | Service.Proto.Pong _ -> (s, client)
  | _ -> failwith "server answered Ping with something else"

let server_stats client =
  match Service.Client.call ~deadline:30.0 client Service.Proto.Stats with
  | Service.Proto.Stats_reply { entries; journal_bytes; _ } -> (entries, journal_bytes)
  | _ -> failwith "server answered Stats with something else"

(* --seconds per pass: 36 passes at the default 15 s; a pass takes 0.3
   to 0.6 s on the machine the benchmark was tuned on *)
let nominal_pass_s = 0.42

let passes_of seconds = max 3 (int_of_float (Float.round (seconds /. nominal_pass_s)))
let plan_text ~seed ~seconds = String.concat "\n" (List.map describe (plan ~seed ~passes:(passes_of seconds)))

let run ~cli ~workdir ~seed ~seconds ~trace ~setups =
  let passes = passes_of seconds in
  let t = tally () in
  let dir k = Filename.concat workdir (Printf.sprintf "svc-%d-%d" (Unix.getpid ()) k) in
  (* set-up: build the hosts and the request plan, start the server, up
     to its first answered request; only the first server is kept *)
  let setup_runs = ref [] in
  let timed_setup () =
    settle ();
    let k = List.length !setup_runs in
    let v, ms =
      time (fun () ->
          let hosts =
            Array.of_list (List.map (fun w -> (w, Stackvm.Serialize.encode (compile w))) (host_workloads ()))
          in
          let items = plan ~seed ~passes in
          let s, client = launch ~cli ~dir:(dir k) in
          (hosts, items, s, client))
    in
    setup_runs := ms :: !setup_runs;
    v
  in
  let hosts, items, server, client = timed_setup () in
  let items = Array.of_list items in
  let digests = Array.make (Array.length items) "" in
  let call req = match Service.Client.call ~deadline:60.0 client req with r -> Ok r | exception e -> Error e in
  (* warm-up, never timed: one embed, its read-back and an unmarked
     recognition under keys of their own *)
  let warm = plan ~seed:(seed lxor 0x5eed) ~passes:1 in
  let warm_digests = Array.make (List.length warm) "" in
  List.iteri
    (fun n i ->
      if n < 6 then
        match call (request ~hosts ~digests:warm_digests i) with
        | Ok (Service.Proto.Embedded { digest; _ }) -> warm_digests.(n) <- digest
        | _ -> ())
    warm;
  let rss_after_setup = proc_status_kb (string_of_int server.pid) "VmRSS" in
  settle ();
  let samples = ref [] in
  let current_pass = ref (-1) in
  Array.iteri
    (fun n i ->
      if i.pass <> !current_pass then begin
        current_pass := i.pass;
        let k = setups_before_pass ~setups ~passes i.pass in
        for _ = 1 to k do
          let _, _, s, c = timed_setup () in
          stop s c
        done;
        if k > 0 then settle ()
      end;
      let req = request ~hosts ~digests i in
      let got, ms = time (fun () -> call req) in
      let before = failed t in
      judge_response t ~digests n i got;
      if failed t > before then prerr_endline (Printf.sprintf "failed request %d: %s" n (describe i));
      samples := (class_of i, ms) :: !samples)
    items;
  let pid = string_of_int server.pid in
  let peak = proc_status_kb pid "VmHWM" and rss_after = proc_status_kb pid "VmRSS" in
  let entries, journal_bytes = server_stats client in
  (* after timing: every stored program computes what its host computes;
     its size and steps against the host are the Fig. 8 costs *)
  let profiles =
    Array.map (fun ((w : Workloads.Workload.t), b) -> profile (Stackvm.Serialize.decode b) ~input:w.input) hosts
  in
  let sizes = ref [] and steps = ref [] and preserved = ref true in
  Array.iteri
    (fun n i ->
      if i.kind = Embed && digests.(n) <> "" then
        match call (Service.Proto.Get_artifact { kind = Store.Artifact.Vm_program; key = digests.(n) }) with
        | Ok (Service.Proto.Artifact { payload; _ }) -> (
            let w, _ = hosts.(i.host) in
            match costs ~host:profiles.(i.host) ~input:w.input (Stackvm.Serialize.decode payload) with
            | Some (size, step) ->
                sizes := (class_of i, size) :: !sizes;
                steps := (class_of i, step) :: !steps
            | None -> preserved := false)
        | _ -> preserved := false)
    items;
  check t "stored.outputs_match_host" !preserved;
  let setup_s = median (List.map (fun ms -> ms /. 1000.0) !setup_runs) in
  let e2e =
    latency_metrics !samples
    @ [ metric "setup_s" "s" setup_s; metric "peak_rss_mb" "MB" (mb_of_kb peak) ]
    @ cost_metrics ~sizes:!sizes ~steps:!steps
  in
  let count k = Array.fold_left (fun n i -> if i.kind = k then n + 1 else n) 0 items in
  let info =
    [ ("passes", string_of_int passes) ]
    @ List.map (fun k -> ("requests_" ^ kind_name k, string_of_int (count k))) kinds
    @ [ ("server_domains", "2"); ("setups", string_of_int setups) ]
    @ raw_latency_info !samples
  in
  if not trace then begin
    stop server client;
    { tally = t; metrics = e2e; info; samples = List.rev !samples }
  end
  else begin
    (* The traced pass replays the same requests twice: through the
       client's chain of public calls against the server (encode, frame
       out, frame in, decode), and in-process through
       [Service.Server.handle] over a registry and pool of the server's
       shape, with the store reads and writes around it timed. *)
    Service.Client.close client;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX server.socket);
    let replay_dir = Filename.concat server.dir "replay" in
    let store = Store.Registry.open_store ~root:(Filename.concat replay_dir "a") () in
    let side = Store.Registry.open_store ~root:(Filename.concat replay_dir "b") () in
    let pool = Engine.Pool.create ~domains:2 () in
    let replay_digests = Array.make (Array.length items) "" in
    let frame_bytes = ref 0 and same = ref true in
    Spans.reset ();
    settle ();
    Array.iteri
      (fun n i ->
        let req = request ~hosts ~digests i in
        let k = kind_name i.kind in
        Spans.operation n (fun () ->
            let resp =
              Spans.span ("service.roundtrip." ^ k) (fun () ->
                  let frame = Spans.span "service.wire.encode" (fun () -> Service.Wire.encode_request req) in
                  Service.Wire.write_frame fd frame;
                  let reply = Option.get (Service.Wire.read_frame fd) in
                  frame_bytes := !frame_bytes + String.length frame + String.length reply + 8;
                  Spans.span "service.wire.decode" (fun () -> Service.Wire.decode_response reply))
            in
            let local =
              match i.kind with
              | Recognize_stored ->
                  let digest = replay_digests.(i.source) in
                  ignore
                    (Spans.span "store.get" (fun () ->
                         Store.Registry.get store ~kind:Store.Artifact.Vm_program ~key:digest));
                  Spans.span ("service.handle." ^ k) (fun () ->
                      Service.Server.handle ~store ~pool ~requests:0 ~errors:0
                        (request ~hosts ~digests:replay_digests i))
              | Embed -> (
                  let r =
                    Spans.span ("service.handle." ^ k) (fun () ->
                        Service.Server.handle ~store ~pool ~requests:0 ~errors:0 req)
                  in
                  match r with
                  | Service.Proto.Embedded { digest; _ } ->
                      replay_digests.(n) <- digest;
                      (match
                         Spans.span "store.get" (fun () ->
                             Store.Registry.get store ~kind:Store.Artifact.Vm_program ~key:digest)
                       with
                      | Ok (payload, _) ->
                          ignore
                            (Spans.span "store.put" (fun () ->
                                 Store.Registry.put side ~kind:Store.Artifact.Vm_program ~key:digest payload))
                      | Error _ -> same := false);
                      r
                  | _ -> r)
              | Recognize_bytes ->
                  Spans.span ("service.handle." ^ k) (fun () ->
                      Service.Server.handle ~store ~pool ~requests:0 ~errors:0 req)
            in
            (* the replay must answer as the server did *)
            match (resp, local) with
            | Ok (Service.Proto.Embedded a), Service.Proto.Embedded b -> if a.digest <> b.digest then same := false
            | Ok (Service.Proto.Recognized a), Service.Proto.Recognized b ->
                if not (same_option Bignum.equal a.value b.value) then same := false
            | _ -> same := false))
      items;
    Engine.Pool.shutdown pool;
    Store.Registry.close store;
    Store.Registry.close side;
    Unix.close fd;
    let rss_growth = mb_of_kb (rss_after -. rss_after_setup) in
    let client = Service.Client.connect ~deadline:30.0 server.socket in
    stop server client;
    check t "trace.replay_matches_server" !same;
    let a = Spans.analyse () in
    check t "trace.self_times_sum_to_span" a.consistent;
    let n = float_of_int (Array.length items) in
    let mean_of name calls = if calls = 0 then 0.0 else Spans.get a.total_ms name /. float_of_int calls in
    let round_total = List.fold_left (fun acc k -> acc +. Spans.get a.total_ms ("service.roundtrip." ^ kind_name k)) 0.0 kinds in
    let handle_total = List.fold_left (fun acc k -> acc +. Spans.get a.total_ms ("service.handle." ^ kind_name k)) 0.0 kinds in
    let layer =
      [
        metric "service.wire.encode.ms" "ms" (Spans.get a.self_ms "service.wire.encode" /. n);
        metric "service.wire.decode.ms" "ms" (Spans.get a.self_ms "service.wire.decode" /. n);
        metric "service.frame_bytes" "bytes" (float_of_int !frame_bytes /. n);
      ]
      @ List.concat_map
          (fun k ->
            let name = kind_name k in
            [
              metric ("service.roundtrip." ^ name ^ ".ms") "ms" (mean_of ("service.roundtrip." ^ name) (count k));
              metric ("service.handle." ^ name ^ ".ms") "ms" (mean_of ("service.handle." ^ name) (count k));
            ])
          kinds
      @ [
          metric "service.transport.ms" "ms" ((round_total -. handle_total) /. n);
          metric "store.put.ms" "ms" (mean_of "store.put" (Spans.calls a "store.put"));
          metric "store.get.ms" "ms" (mean_of "store.get" (Spans.calls a "store.get"));
          metric "store.journal_bytes" "bytes" (float_of_int journal_bytes);
          metric "store.entries" "count" (float_of_int entries);
          metric "service.server_rss_growth_mb" "MB" rss_growth;
          metric "tracing.overhead_pct" "%" (100.0 *. ((round_total /. sum (List.map snd !samples)) -. 1.0));
        ]
    in
    { tally = t; metrics = layer; info; samples = List.rev !samples }
  end
