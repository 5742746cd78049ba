type event =
  | Batch_start of { jobs : int; domains : int }
  | Batch_finish of { ok : int; failed : int; ms : float }
  | Job_start of { id : int; label : string; domain : int }
  | Job_finish of {
      id : int;
      label : string;
      ok : bool;
      detail : string;
      ms : float;
      attempts : int;
      cached : bool;
    }
  | Job_retry of { id : int; label : string; attempt : int; reason : string; backoff_ms : float }
  | Fault_injected of { id : int; label : string; layer : string; detail : string }
  | Breaker_open of { label : string; key : string; failures : int }
  | Cache_hit of { stage : string; key : string }
  | Cache_miss of { stage : string; key : string }
  | Cache_evict of { stage : string; key : string }
  | Store_put of { kind : string; key : string; bytes : int }
  | Store_get of { kind : string; key : string; hit : bool }
  | Store_replay of { records : int; truncated_bytes : int }
  | Service_request of { op : string; ok : bool; ms : float }
  | Service_shed of { op : string; inflight : int; limit : int }
  | Shard_up of { shard : string; socket : string }
  | Shard_down of { shard : string; reason : string }
  | Failover of { shard : string; replica : string; ms : float }
  | Stage_time of { id : int; stage : string; ms : float }
  | Counter of { name : string; delta : int }
  | Diag of { rule : string; location : string; message : string }
  | Tournament_cell_done of {
      id : int;
      scheme : string;
      workload : string;
      attack : string;
      survived : bool;
      cached : bool;
    }
  | Tournament_gate of { scheme : string; composite : float; floor : float; ok : bool }

type t = {
  mutex : Mutex.t;
  sink : (event -> unit) option;
  mutable rev_events : event list;
  counters : (string, int) Hashtbl.t;
}

let create ?sink () = { mutex = Mutex.create (); sink; rev_events = []; counters = Hashtbl.create 16 }

let bump t name delta =
  Hashtbl.replace t.counters name (delta + Option.value ~default:0 (Hashtbl.find_opt t.counters name))

let emit t ev =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      t.rev_events <- ev :: t.rev_events;
      (match ev with
      | Job_finish { ok; _ } -> bump t (if ok then "jobs.ok" else "jobs.failed") 1
      | Job_retry _ -> bump t "jobs.retries" 1
      | Fault_injected _ -> bump t "faults.injected" 1
      | Breaker_open _ -> bump t "breaker.trips" 1
      | Cache_hit _ -> bump t "cache.hits" 1
      | Cache_miss _ -> bump t "cache.misses" 1
      | Cache_evict _ -> bump t "cache.evictions" 1
      | Store_put _ -> bump t "store.puts" 1
      | Store_get { hit; _ } ->
          bump t "store.gets" 1;
          if hit then bump t "store.hits" 1
      | Service_request { ok; _ } ->
          bump t "service.requests" 1;
          if not ok then bump t "service.errors" 1
      | Service_shed _ -> bump t "service.shed" 1
      | Shard_up _ -> bump t "shards.up" 1
      | Shard_down _ -> bump t "shards.down" 1
      | Failover _ -> bump t "shards.failovers" 1
      | Counter { name; delta } -> bump t name delta
      | Diag _ -> bump t "diagnostics" 1
      | Tournament_cell_done { survived; _ } ->
          bump t "tournament.cells" 1;
          if survived then bump t "tournament.survived" 1
      | Tournament_gate { ok; _ } ->
          bump t "tournament.gates" 1;
          if not ok then bump t "tournament.gate_failures" 1
      | Batch_start _ | Batch_finish _ | Job_start _ | Stage_time _ | Store_replay _ -> ());
      match t.sink with None -> () | Some f -> f ev)

let events t =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) (fun () -> List.rev t.rev_events)

let count t pred = List.length (List.filter pred (events t))

let counters t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

(* ---- JSON rendering (hand-rolled: no JSON library in the image) ---- *)

let json fields = "{" ^ String.concat "," fields ^ "}"
let str k v = Printf.sprintf "\"%s\":%s" k (Util.Json.str v)
let int k v = Printf.sprintf "\"%s\":%d" k v
let flt k v = Printf.sprintf "\"%s\":%.3f" k v
let bool k v = Printf.sprintf "\"%s\":%b" k v

let to_json = function
  | Batch_start { jobs; domains } -> json [ str "ev" "batch_start"; int "jobs" jobs; int "domains" domains ]
  | Batch_finish { ok; failed; ms } ->
      json [ str "ev" "batch_finish"; int "ok" ok; int "failed" failed; flt "ms" ms ]
  | Job_start { id; label; domain } ->
      json [ str "ev" "job_start"; int "id" id; str "label" label; int "domain" domain ]
  | Job_finish { id; label; ok; detail; ms; attempts; cached } ->
      json
        [
          str "ev" "job_finish"; int "id" id; str "label" label; bool "ok" ok; str "detail" detail;
          flt "ms" ms; int "attempts" attempts; bool "cached" cached;
        ]
  | Job_retry { id; label; attempt; reason; backoff_ms } ->
      json
        [
          str "ev" "job_retry"; int "id" id; str "label" label; int "attempt" attempt;
          str "reason" reason; flt "backoff_ms" backoff_ms;
        ]
  | Fault_injected { id; label; layer; detail } ->
      json [ str "ev" "fault_injected"; int "id" id; str "label" label; str "layer" layer; str "detail" detail ]
  | Breaker_open { label; key; failures } ->
      json [ str "ev" "breaker_open"; str "label" label; str "key" key; int "failures" failures ]
  | Cache_hit { stage; key } -> json [ str "ev" "cache_hit"; str "stage" stage; str "key" key ]
  | Cache_miss { stage; key } -> json [ str "ev" "cache_miss"; str "stage" stage; str "key" key ]
  | Cache_evict { stage; key } -> json [ str "ev" "cache_evict"; str "stage" stage; str "key" key ]
  | Store_put { kind; key; bytes } ->
      json [ str "ev" "store_put"; str "kind" kind; str "key" key; int "bytes" bytes ]
  | Store_get { kind; key; hit } ->
      json [ str "ev" "store_get"; str "kind" kind; str "key" key; bool "hit" hit ]
  | Store_replay { records; truncated_bytes } ->
      json [ str "ev" "store_replay"; int "records" records; int "truncated_bytes" truncated_bytes ]
  | Service_request { op; ok; ms } ->
      json [ str "ev" "service_request"; str "op" op; bool "ok" ok; flt "ms" ms ]
  | Service_shed { op; inflight; limit } ->
      json [ str "ev" "service_shed"; str "op" op; int "inflight" inflight; int "limit" limit ]
  | Shard_up { shard; socket } -> json [ str "ev" "shard_up"; str "shard" shard; str "socket" socket ]
  | Shard_down { shard; reason } -> json [ str "ev" "shard_down"; str "shard" shard; str "reason" reason ]
  | Failover { shard; replica; ms } ->
      json [ str "ev" "failover"; str "shard" shard; str "replica" replica; flt "ms" ms ]
  | Stage_time { id; stage; ms } -> json [ str "ev" "stage_time"; int "id" id; str "stage" stage; flt "ms" ms ]
  | Counter { name; delta } -> json [ str "ev" "counter"; str "name" name; int "delta" delta ]
  | Diag { rule; location; message } ->
      json [ str "ev" "diag"; str "rule" rule; str "location" location; str "message" message ]
  | Tournament_cell_done { id; scheme; workload; attack; survived; cached } ->
      json
        [
          str "ev" "tournament_cell_done"; int "id" id; str "scheme" scheme;
          str "workload" workload; str "attack" attack; bool "survived" survived;
          bool "cached" cached;
        ]
  | Tournament_gate { scheme; composite; floor; ok } ->
      json
        [
          str "ev" "tournament_gate"; str "scheme" scheme; flt "composite" composite;
          flt "floor" floor; bool "ok" ok;
        ]

let json_sink oc ev =
  output_string oc (to_json ev);
  output_char oc '\n';
  flush oc

let report t =
  let evs = events t in
  let buf = Buffer.create 1024 in
  let counters = counters t in
  let get name = Option.value ~default:0 (List.assoc_opt name counters) in
  let finished =
    List.filter_map
      (function
        | Job_finish { ok; label; detail; ms; cached; _ } -> Some (ok, label, detail, ms, cached)
        | _ -> None)
      evs
  in
  let total_ms = List.fold_left (fun acc (_, _, _, ms, _) -> acc +. ms) 0.0 finished in
  Buffer.add_string buf "=== batch report ===\n";
  (match
     List.find_map (function Batch_start { jobs; domains } -> Some (jobs, domains) | _ -> None) evs
   with
  | Some (jobs, domains) -> Buffer.add_string buf (Printf.sprintf "jobs: %d  domains: %d\n" jobs domains)
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf "ok: %d  failed: %d  retries: %d\n" (get "jobs.ok") (get "jobs.failed")
       (get "jobs.retries"));
  Buffer.add_string buf
    (Printf.sprintf "cache: %d hits, %d misses, %d evictions\n" (get "cache.hits") (get "cache.misses")
       (get "cache.evictions"));
  if get "store.puts" > 0 || get "store.gets" > 0 then
    Buffer.add_string buf
      (Printf.sprintf "store: %d puts, %d gets (%d hits)\n" (get "store.puts") (get "store.gets")
         (get "store.hits"));
  if get "service.requests" > 0 then
    Buffer.add_string buf
      (Printf.sprintf "service: %d requests, %d errors\n" (get "service.requests") (get "service.errors"));
  if get "service.shed" > 0 then
    Buffer.add_string buf (Printf.sprintf "backpressure: %d requests shed\n" (get "service.shed"));
  if get "shards.up" > 0 || get "shards.down" > 0 || get "shards.failovers" > 0 then
    Buffer.add_string buf
      (Printf.sprintf "shards: %d up, %d down, %d failovers\n" (get "shards.up") (get "shards.down")
         (get "shards.failovers"));
  if get "faults.injected" > 0 || get "breaker.trips" > 0 || get "breaker.short_circuits" > 0 then
    Buffer.add_string buf
      (Printf.sprintf "faults: %d injected  breaker: %d trips, %d short-circuits\n" (get "faults.injected")
         (get "breaker.trips")
         (get "breaker.short_circuits"));
  if get "recognitions.partial" > 0 || get "recognitions.degraded" > 0 then
    Buffer.add_string buf
      (Printf.sprintf "partial recovery: %d degraded recognitions, %d partial-only\n"
         (get "recognitions.degraded")
         (get "recognitions.partial"));
  if get "tournament.cells" > 0 then
    Buffer.add_string buf
      (Printf.sprintf "tournament: %d cells (%d survived)  gates: %d (%d failed)\n"
         (get "tournament.cells") (get "tournament.survived") (get "tournament.gates")
         (get "tournament.gate_failures"));
  if get "diagnostics" > 0 then
    Buffer.add_string buf (Printf.sprintf "diagnostics: %d findings\n" (get "diagnostics"));
  (match finished with
  | [] -> ()
  | _ :: _ ->
      Buffer.add_string buf
        (Printf.sprintf "job time: %.1f ms total, %.1f ms mean\n" total_ms
           (total_ms /. float_of_int (List.length finished))));
  (match List.find_map (function Batch_finish { ms; _ } -> Some ms | _ -> None) evs with
  | Some ms -> Buffer.add_string buf (Printf.sprintf "wall clock: %.1f ms\n" ms)
  | None -> ());
  List.iter
    (fun (ok, label, detail, ms, cached) ->
      Buffer.add_string buf
        (Printf.sprintf "  [%s] %s: %s (%.1f ms%s)\n"
           (if ok then "ok" else "FAIL")
           label detail ms
           (if cached then ", cached" else "")))
    finished;
  let user_counters =
    List.filter
      (fun (name, _) ->
        not
          (List.mem name
             [
               "jobs.ok"; "jobs.failed"; "jobs.retries"; "cache.hits"; "cache.misses"; "cache.evictions";
               "store.puts"; "store.gets"; "store.hits"; "service.requests"; "service.errors";
               "service.shed"; "shards.up"; "shards.down"; "shards.failovers";
               "faults.injected"; "breaker.trips"; "breaker.short_circuits"; "recognitions.partial";
               "recognitions.degraded"; "diagnostics"; "tournament.cells"; "tournament.survived";
               "tournament.gates"; "tournament.gate_failures";
             ]))
      counters
  in
  List.iter (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  counter %s = %d\n" name v)) user_counters;
  Buffer.contents buf
