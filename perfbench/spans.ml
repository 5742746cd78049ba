(* The traced run's recorder.

   A span wraps one call into a layer's public function, made from the
   benchmark's own code: name, start, end, parent span, and the request
   id shared by every span of one operation.  Spans stay in memory and
   are written out when the run ends; self time is a span's duration
   minus the durations of its children. *)

type span = { id : int; name : string; rid : int; parent : int; t0 : float; t1 : float }

let recorded : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let request = ref 0
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let reset () =
  recorded := [];
  next_id := 0;
  current := -1;
  Hashtbl.reset counters

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let t0 = Common.now () in
  let finish () =
    let t1 = Common.now () in
    current := parent;
    recorded := { id; name; rid = !request; parent; t0; t1 } :: !recorded
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* A root span of one operation, ["op"] unless named: every span opened
   inside shares its request id. *)
let operation ?(name = "op") rid f =
  request := rid;
  span name f

let count name v = Hashtbl.replace counters name (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))
let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)

let dur s = (s.t1 -. s.t0) *. 1000.0

(* Self times, checked: children lie inside their parent and do not
   overlap one another, and per operation the self times of every span in
   its tree add up to the operation's duration, so the decomposition
   leaves nothing out and counts nothing twice. *)
type analysis = {
  self_ms : (string, float) Hashtbl.t;  (** summed self time per span name *)
  total_ms : (string, float) Hashtbl.t;  (** summed duration per span name *)
  calls : (string, int) Hashtbl.t;
  consistent : bool;
}

let analyse () =
  let spans = List.rev !recorded in
  let by_id = Hashtbl.create 1024 and children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace by_id s.id s;
      if s.parent >= 0 then
        Hashtbl.replace children s.parent (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let self_ms = Hashtbl.create 64 and total_ms = Hashtbl.create 64 and calls = Hashtbl.create 64 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  let consistent = ref true in
  let self s =
    let kids =
      List.sort (fun a b -> compare a.t0 b.t0) (Option.value ~default:[] (Hashtbl.find_opt children s.id))
    in
    ignore
      (List.fold_left
         (fun prev_end k ->
           if k.t0 < prev_end || k.t1 > s.t1 then consistent := false;
           k.t1)
         s.t0 kids);
    dur s -. List.fold_left (fun acc k -> acc +. dur k) 0.0 kids
  in
  let rec root s = if s.parent < 0 then s else root (Hashtbl.find by_id s.parent) in
  let op_self = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let st = self s in
      add self_ms s.name st;
      add total_ms s.name (dur s);
      Hashtbl.replace calls s.name (1 + Option.value ~default:0 (Hashtbl.find_opt calls s.name));
      let r = root s in
      if r.name = "op" then add op_self r.id st)
    spans;
  List.iter
    (fun s ->
      if s.name = "op" && Float.abs (Hashtbl.find op_self s.id -. dur s) > 1e-6 then consistent := false)
    spans;
  { self_ms; total_ms; calls; consistent = !consistent }

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
let calls a k = Option.value ~default:0 (Hashtbl.find_opt a.calls k)

let write path ~meta =
  let oc = open_out path in
  output_string oc meta;
  output_char oc '\n';
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"rid\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n" s.id s.name s.rid
        s.parent s.t0 s.t1)
    (List.rev !recorded);
  close_out oc
