(* In-process cluster supervisor: one domain per shard server (each with
   its own registry root and socket) plus one per standby replica.  This
   is the topology the CLI's `cluster serve`, the failover drill, the
   soak bench and the tests all run on.

   [kill] flips a shard's stop flag without sending [Shutdown]: the
   server drains whatever frame is in flight and vanishes — its socket
   file disappears — which is exactly the failure the router's failover
   path is built to absorb.  Acknowledged writes survive because the
   drain fsyncs the journal before the domain exits. *)

type shard_member = {
  name : string;
  root : string;
  socket : string;
  stop_flag : bool Atomic.t;
  domain : Service.Server.stopped Domain.t;
  mutable stopped : Service.Server.stopped option;
}

type replica_member = {
  for_shard : string;
  rep_root : string;
  rep_socket : string;
  rep_stop : bool Atomic.t;
  rep_domain : Replica.stopped Domain.t;
  mutable rep_stopped : Replica.stopped option;
}

type t = { members : shard_member list; replicas : replica_member list }

let shard_name i = Printf.sprintf "shard-%d" i
let socket_of dir name = Filename.concat dir (name ^ ".sock")
let root_of dir name = Filename.concat dir name

let start ?events ?(fsync = true) ?(domains = 2) ?(conn_workers = 2) ?max_inflight
    ?(replicate = []) ?(fault = Fault.Inject.none) ~dir ~shards () =
  if shards < 1 then invalid_arg "Cluster.start: shards < 1";
  Store.Registry.mkdir_p dir;
  let members =
    List.init shards (fun i ->
        let name = shard_name i in
        let root = root_of dir name and socket = socket_of dir name in
        let flag = Atomic.make false in
        let domain =
          Domain.spawn (fun () ->
              let store = Store.Registry.open_store ~fsync ~root () in
              Fun.protect
                ~finally:(fun () -> Store.Registry.close store)
                (fun () ->
                  Service.Server.serve ?events ~domains ~conn_workers ?max_inflight
                    ~stop:(fun () -> Atomic.get flag)
                    ~store ~socket_path:socket ()))
        in
        (match events with
        | Some ev -> Engine.Events.emit ev (Engine.Events.Shard_up { shard = name; socket })
        | None -> ());
        { name; root; socket; stop_flag = flag; domain; stopped = None })
  in
  let replicas =
    List.filter_map
      (fun i ->
        if i < 0 || i >= shards then None
        else begin
          let name = shard_name i in
          let rep_root = root_of dir (name ^ "-replica") in
          let rep_socket = socket_of dir (name ^ "-replica") in
          let flag = Atomic.make false in
          let rep_domain =
            Domain.spawn (fun () ->
                Replica.serve ?events ~domains ~fault
                  ~stop:(fun () -> Atomic.get flag)
                  ~root:rep_root ~leader:(socket_of dir name) ~socket_path:rep_socket ())
          in
          Some
            { for_shard = name; rep_root; rep_socket; rep_stop = flag; rep_domain; rep_stopped = None }
        end)
      replicate
  in
  (* wait until every socket is bound, so the first router call does not
     burn its deadline on startup races *)
  let expected =
    List.map (fun m -> m.socket) members @ List.map (fun r -> r.rep_socket) replicas
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (not (List.for_all Sys.file_exists expected)) && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.01
  done;
  { members; replicas }

let endpoints t =
  List.map
    (fun m ->
      {
        Router.name = m.name;
        socket = m.socket;
        replica =
          List.find_map
            (fun r -> if r.for_shard = m.name then Some r.rep_socket else None)
            t.replicas;
      })
    t.members

let shard_names t = List.map (fun m -> m.name) t.members
let root_of_shard t name =
  List.find_map (fun m -> if m.name = name then Some m.root else None) t.members
let replica_root_of t name =
  List.find_map (fun r -> if r.for_shard = name then Some r.rep_root else None) t.replicas

let kill t name =
  match List.find_opt (fun m -> m.name = name) t.members with
  | None -> invalid_arg (Printf.sprintf "Cluster.kill: no shard named %s" name)
  | Some m ->
      Atomic.set m.stop_flag true;
      if m.stopped = None then m.stopped <- Some (Domain.join m.domain)

let stop t =
  List.iter (fun m -> Atomic.set m.stop_flag true) t.members;
  List.iter (fun r -> Atomic.set r.rep_stop true) t.replicas;
  let shard_results =
    List.map
      (fun m ->
        (match m.stopped with
        | None -> m.stopped <- Some (Domain.join m.domain)
        | Some _ -> ());
        (m.name, Option.get m.stopped))
      t.members
  in
  List.iter
    (fun r ->
      match r.rep_stopped with
      | None -> r.rep_stopped <- Some (Domain.join r.rep_domain)
      | Some _ -> ())
    t.replicas;
  shard_results
