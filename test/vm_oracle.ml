(* The reference trace capture: the interpreter under a block and branch
   observer.  Production tracing runs only on the compiled engine
   ([Stackvm.Trace.capture]); this is the capture it is held to — same
   result, block counts, snapshots and [hot_blocks] order, and the packed
   events of [Stackvm.Trace.record] — by the compile and gwm-recognition
   suites.  Unlike the engine's, it records the events with snapshots
   too; like it, it unpacks [branches] only without snapshots. *)

open Stackvm
open Trace

let interp_capture ?fuel ~want_snapshots prog ~input events =
  let visits = Hashtbl.create 256 in
  let block_counts = Hashtbl.create 256 in
  let observer =
    {
      Interp.on_block =
        (fun ~fidx ~pc ~locals ~globals ->
          let key = (fidx, pc) in
          let count = Option.value ~default:0 (Hashtbl.find_opt block_counts key) in
          Hashtbl.replace block_counts key (count + 1);
          if want_snapshots && count < max_snapshots_per_block then begin
            let snap = { locals = Array.copy locals; globals = Array.copy globals } in
            let prev = Option.value ~default:[] (Hashtbl.find_opt visits key) in
            Hashtbl.replace visits key (prev @ [ snap ])
          end);
      Interp.on_branch = (fun ~fidx ~pc ~taken -> Tracebuf.add events ~fidx ~pc ~taken);
    }
  in
  let result = Interp.run ~observer ?fuel prog ~input in
  let branches = if want_snapshots then [||] else branches_of_buf events in
  { branches; events; visits; block_counts; result }

(* [Trace.capture]'s signature, on the interpreter; unlike the engine's
   snapshot-free capture it fills [block_counts] either way *)
let capture ?fuel ?(want_snapshots = true) prog ~input =
  interp_capture ?fuel ~want_snapshots prog ~input (Tracebuf.create ~capacity:65536 ())
