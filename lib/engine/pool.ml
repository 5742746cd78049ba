type 'a state = Pending | Done of ('a, exn) result

type 'a future = { fm : Mutex.t; fc : Condition.t; mutable state : 'a state }

type task = Task : { run : unit -> 'a; future : 'a future } -> task

type t = {
  m : Mutex.t;
  nonempty : Condition.t;
  queue : task Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let fill future result =
  Mutex.lock future.fm;
  future.state <- Done result;
  Condition.broadcast future.fc;
  Mutex.unlock future.fm

let rec worker_loop t =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.nonempty t.m
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.m (* closed and drained *)
  else begin
    let (Task { run; future }) = Queue.pop t.queue in
    Mutex.unlock t.m;
    fill future (try Ok (run ()) with e -> Error e);
    worker_loop t
  end

let create ?domains () =
  let n =
    match domains with
    | Some d -> max 1 d
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let t =
    { m = Mutex.create (); nonempty = Condition.create (); queue = Queue.create (); closed = false; workers = [] }
  in
  t.workers <- List.init n (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = List.length t.workers

let submit t run =
  let future = { fm = Mutex.create (); fc = Condition.create (); state = Pending } in
  Mutex.lock t.m;
  if t.closed then begin
    Mutex.unlock t.m;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push (Task { run; future }) t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.m;
  future

let await future =
  Mutex.lock future.fm;
  let rec wait () = match future.state with Pending -> Condition.wait future.fc future.fm; wait () | Done r -> r in
  let r = wait () in
  Mutex.unlock future.fm;
  r

let await_exn future = match await future with Ok v -> v | Error e -> raise e

let map t ~f xs = List.map (fun x -> submit t (fun () -> f x)) xs |> List.map await

let shutdown t =
  Mutex.lock t.m;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.m;
  let workers = t.workers in
  t.workers <- [];
  List.iter Domain.join workers

(* The calling domain is one of the [domains] workers: it claims thunks
   from the same atomic index as its helpers, so no domain sits idle while
   the others compute.  Results land in per-index slots, published to the
   caller by [Domain.join]. *)
let run_list ?(domains = 1) thunks =
  let run thunk = try Ok (thunk ()) with e -> Error e in
  let tasks = Array.of_list thunks in
  let n = Array.length tasks in
  let helpers = min domains n - 1 in
  if helpers <= 0 then List.map run thunks
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (run tasks.(i));
        work ()
      end
    in
    let spawned = List.init helpers (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join spawned;
    Array.to_list (Array.map Option.get results)
  end
