type stats = { hits : int; misses : int; disk_loads : int; store_loads : int; evictions : int }

(* True LRU over string keys: a doubly-linked recency list threaded
   through a Hashtbl, so lookups touch in O(1) and eviction always drops
   the genuinely least-recently-used entry (the old FIFO queue evicted in
   insertion order, punishing hot entries inserted early). *)
module Lru = struct
  type 'v node = {
    nkey : string;
    value : 'v;
    mutable prev : 'v node option;  (* towards MRU *)
    mutable next : 'v node option;  (* towards LRU *)
  }

  type 'v t = {
    tbl : (string, 'v node) Hashtbl.t;
    mutable mru : 'v node option;
    mutable lru : 'v node option;
  }

  let create n = { tbl = Hashtbl.create n; mru = None; lru = None }
  let length t = Hashtbl.length t.tbl

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.mru <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.lru <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.mru;
    (match t.mru with Some m -> m.prev <- Some n | None -> t.lru <- Some n);
    t.mru <- Some n

  let mem t key = Hashtbl.mem t.tbl key

  let find t key =
    match Hashtbl.find_opt t.tbl key with
    | None -> None
    | Some n ->
        unlink t n;
        push_front t n;
        Some n.value

  (* first insertion wins: adding an existing key is the caller's bug *)
  let add t key value =
    let n = { nkey = key; value; prev = None; next = None } in
    Hashtbl.replace t.tbl key n;
    push_front t n

  let pop_lru t =
    match t.lru with
    | None -> None
    | Some n ->
        unlink t n;
        Hashtbl.remove t.tbl n.nkey;
        Some (n.nkey, n.value)

  let clear t =
    Hashtbl.reset t.tbl;
    t.mru <- None;
    t.lru <- None
end

type t = {
  mutex : Mutex.t;
  spill_dir : string option;
  store : Store.Registry.t option;
  capacity : int;
  bytes : string Lru.t;
  prepared : Scheme.Watermarker.prepared Lru.t;
  mutable hits : int;
  mutable misses : int;
  mutable disk_loads : int;
  mutable store_loads : int;
  mutable evictions : int;
}

let create ?spill_dir ?store ?(capacity = 4096) () =
  Option.iter Store.Registry.mkdir_p spill_dir;
  {
    mutex = Mutex.create ();
    spill_dir;
    store;
    capacity = max 1 capacity;
    bytes = Lru.create 64;
    prepared = Lru.create 16;
    hits = 0;
    misses = 0;
    disk_loads = 0;
    store_loads = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Spill file names: stage and key are digests / short tags, but sanitize
   anyway so no stage string can escape the directory. *)
let sanitize s =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '_') s

let spill_path dir ~stage ~key = Filename.concat dir (sanitize stage ^ "-" ^ sanitize key ^ ".bin")

let read_file path =
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))
    with Sys_error _ | End_of_file -> None

let write_file path contents =
  try
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents);
    Sys.rename tmp path
  with Sys_error _ -> ()

let emit events ev = Option.iter (fun e -> Events.emit e ev) events

let ckey ~stage ~key = stage ^ ":" ^ key

let split_ck ck =
  match String.index_opt ck ':' with
  | Some i -> (String.sub ck 0 i, String.sub ck (i + 1) (String.length ck - i - 1))
  | None -> ("", ck)

(* The persistent tier is best-effort: a sick registry degrades the cache
   to its in-memory + spill behaviour, it never fails a computation. *)
let store_fetch t ck =
  match t.store with
  | None -> None
  | Some reg -> (
      try
        match Store.Registry.get reg ~kind:Store.Artifact.Cache_entry ~key:ck with
        | Ok (payload, _) -> Some payload
        | Error _ -> None
      with _ -> None)

let store_persist t ~stage ck value =
  match t.store with
  | None -> ()
  | Some reg -> (
      try ignore (Store.Registry.put reg ~kind:Store.Artifact.Cache_entry ~key:ck ~label:stage value)
      with _ -> ())

let store_mem t ck =
  match t.store with
  | None -> false
  | Some reg -> ( try Store.Registry.find reg ~kind:Store.Artifact.Cache_entry ~key:ck <> None with _ -> false)

(* returns evicted keys so events fire outside the lock *)
let enforce_capacity_locked t lru =
  let evicted = ref [] in
  while Lru.length lru > t.capacity do
    match Lru.pop_lru lru with
    | Some (k, _) ->
        t.evictions <- t.evictions + 1;
        evicted := k :: !evicted
    | None -> ()
  done;
  !evicted

let emit_evictions events evicted =
  List.iter
    (fun ck ->
      let stage, key = split_ck ck in
      emit events (Events.Cache_evict { stage; key }))
    evicted

let insert_bytes_locked t ck value =
  if not (Lru.mem t.bytes ck) then begin
    Lru.add t.bytes ck value;
    enforce_capacity_locked t t.bytes
  end
  else []

let find_bytes t ?events ~stage ~key () =
  let ck = ckey ~stage ~key in
  let result, evicted =
    locked t (fun () ->
        match Lru.find t.bytes ck with
        | Some v ->
            t.hits <- t.hits + 1;
            (Some v, [])
        | None -> (
            let spilled =
              match t.spill_dir with
              | None -> None
              | Some dir -> read_file (spill_path dir ~stage ~key)
            in
            match spilled with
            | Some v ->
                let ev = insert_bytes_locked t ck v in
                t.hits <- t.hits + 1;
                t.disk_loads <- t.disk_loads + 1;
                (Some v, ev)
            | None -> (
                match store_fetch t ck with
                | Some v ->
                    let ev = insert_bytes_locked t ck v in
                    t.hits <- t.hits + 1;
                    t.store_loads <- t.store_loads + 1;
                    (Some v, ev)
                | None ->
                    t.misses <- t.misses + 1;
                    (None, []))))
  in
  emit_evictions events evicted;
  (match result with
  | Some _ -> emit events (Events.Cache_hit { stage; key })
  | None -> emit events (Events.Cache_miss { stage; key }));
  result

let store_bytes ?events t ~stage ~key value =
  let ck = ckey ~stage ~key in
  let fresh, evicted =
    locked t (fun () ->
        let fresh = not (Lru.mem t.bytes ck) in
        let ev = if fresh then insert_bytes_locked t ck value else [] in
        (fresh, ev))
  in
  emit_evictions events evicted;
  if fresh then begin
    (match t.spill_dir with
    | Some dir -> write_file (spill_path dir ~stage ~key) value
    | None -> ());
    store_persist t ~stage ck value;
    if t.store <> None then
      emit events (Events.Store_put { kind = "cache"; key = ck; bytes = String.length value })
  end

let with_bytes ?events t ~stage ~key compute =
  match find_bytes t ?events ~stage ~key () with
  | Some v -> v
  | None ->
      let v = compute () in
      store_bytes ?events t ~stage ~key v;
      (* a racing domain may have inserted first; return the winner *)
      locked t (fun () -> Option.value ~default:v (Lru.find t.bytes (ckey ~stage ~key)))

let with_prepared ?events t ~key compute =
  let stage = "trace-mem" in
  let found =
    locked t (fun () ->
        match Lru.find t.prepared key with
        | Some p ->
            t.hits <- t.hits + 1;
            Some p
        | None ->
            t.misses <- t.misses + 1;
            None)
  in
  match found with
  | Some p ->
      emit events (Events.Cache_hit { stage; key });
      p
  | None ->
      emit events (Events.Cache_miss { stage; key });
      let p = compute () in
      let winner, evicted =
        locked t (fun () ->
            match Lru.find t.prepared key with
            | Some winner -> (winner, [])
            | None ->
                Lru.add t.prepared key p;
                let ev = enforce_capacity_locked t t.prepared in
                (p, ev))
      in
      List.iter (fun k -> emit events (Events.Cache_evict { stage; key = k })) evicted;
      winner

let find_bytes ?events t ~stage ~key = find_bytes t ?events ~stage ~key ()

let mem_bytes t ~stage ~key =
  let ck = ckey ~stage ~key in
  let in_memory = locked t (fun () -> Lru.mem t.bytes ck) in
  in_memory
  || (match t.spill_dir with None -> false | Some dir -> Sys.file_exists (spill_path dir ~stage ~key))
  || store_mem t ck

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        disk_loads = t.disk_loads;
        store_loads = t.store_loads;
        evictions = t.evictions;
      })

let clear t =
  locked t (fun () ->
      Lru.clear t.bytes;
      Lru.clear t.prepared;
      t.hits <- 0;
      t.misses <- 0;
      t.disk_loads <- 0;
      t.store_loads <- 0;
      t.evictions <- 0)
