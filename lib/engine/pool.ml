type 'a state = Pending | Done of ('a, exn) result

type 'a future = { fm : Mutex.t; fc : Condition.t; mutable state : 'a state }

type t = {
  m : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
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
    let task = Queue.pop t.queue in
    Mutex.unlock t.m;
    task ();
    worker_loop t
  end

let empty () =
  { m = Mutex.create (); nonempty = Condition.create (); queue = Queue.create (); closed = false; workers = [] }

let spawn_worker t = t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers

let create ?domains () =
  let n =
    match domains with
    | Some d -> max 1 d
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let t = empty () in
  for _ = 1 to n do
    spawn_worker t
  done;
  t

let size t = List.length t.workers

(* A queued task must not raise: a worker has no one to raise to. *)
let enqueue t task =
  Mutex.lock t.m;
  if t.closed then begin
    Mutex.unlock t.m;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push task t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.m

let submit t run =
  let future = { fm = Mutex.create (); fc = Condition.create (); state = Pending } in
  enqueue t (fun () -> fill future (try Ok (run ()) with e -> Error e));
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

(* [run_list]'s helpers: one process-wide pool that grows on demand and
   is never joined; an idle helper waits on the queue's condition. *)
let helpers = empty ()

let enlist k =
  Mutex.protect helpers.m (fun () ->
      for _ = List.length helpers.workers + 1 to k do
        spawn_worker helpers
      done)

(* The calling domain is one of the [domains] workers: it claims thunks
   from the same atomic index as its helpers, so no domain sits idle while
   the others compute.  It owns thunk 0 before it wakes a helper, and it
   waits for the last thunk to finish, not for its helpers to return: a
   helper may still be busy with another call's work, or be this call's
   caller one level up when [run_list] nests.  The finishing decrement of
   [left] publishes every result slot to the caller. *)
let run_list ?(domains = 1) thunks =
  let run thunk = try Ok (thunk ()) with e -> Error e in
  let tasks = Array.of_list thunks in
  let n = Array.length tasks in
  let wanted = min (min domains n) (Domain.recommended_domain_count ()) - 1 in
  if wanted <= 0 then List.map run thunks
  else begin
    let results = Array.make n None in
    let next = Atomic.make 1 and left = Atomic.make n in
    let m = Mutex.create () and finished = Condition.create () in
    let run_at i =
      results.(i) <- Some (run tasks.(i));
      if Atomic.fetch_and_add left (-1) = 1 then Mutex.protect m (fun () -> Condition.broadcast finished)
    in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run_at i;
        work ()
      end
    in
    enlist wanted;
    for _ = 1 to wanted do
      enqueue helpers work
    done;
    run_at 0;
    work ();
    Mutex.protect m (fun () ->
        while Atomic.get left > 0 do
          Condition.wait finished m
        done);
    Array.to_list (Array.map Option.get results)
  end
