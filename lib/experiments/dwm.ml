(* DWM: double-watermark interference (§5.2.2). Embeds each VM scheme
   alone and then stacked compositions of both orders through the
   registry, and checks that every component mark still recognizes
   blindly in the multiply-marked program. *)

type row = {
  workload : string;
  combo : string;  (** registry name, e.g. "jwm+gwm" *)
  bytes_before : int;
  bytes_after : int;
  overhead_pct : float;  (** size growth of the marked program *)
  composite_ok : bool;  (** the combo scheme itself recovers the mark *)
  confidence : float;  (** composite confidence (min over members) *)
  members : string;  (** per-component blind recovery, e.g. "jwm=ok gwm=ok" *)
  equivalent : bool;  (** marked program matches outputs on all inputs *)
}

let bits = 64
let combos = [ "jwm"; "gwm"; "jwm+gwm"; "gwm+jwm" ]

let split_combo name = String.split_on_char '+' name

let case (wl : Workloads.Workload.t) combo =
  let open Scheme.Watermarker in
  let base = Workloads.Workload.vm_program wl in
  let input = wl.Workloads.Workload.input in
  let w = Common.watermark_for ~bits in
  let s = spec ~key:Common.passphrase ~bits ~redundancy:12 ~input () in
  let (module W) = Scheme.Builtin.find_exn combo in
  let e = W.embed w s (Vm_program base) in
  let marked =
    match e.carrier with
    | Vm_program p -> p
    | _ -> failwith "dwm: VM scheme returned a non-VM carrier"
  in
  let composite =
    W.recognize ?aux:(if e.aux = "" then None else Some e.aux) s e.carrier
  in
  let members =
    String.concat " "
      (List.map
         (fun name ->
           let (module M) = Scheme.Builtin.find_exn name in
           let r = M.recognize s e.carrier in
           let ok =
             match r.value with Some v -> Bignum.equal v w | None -> false
           in
           Printf.sprintf "%s=%s" name (if ok then "ok" else "LOST"))
         (split_combo combo))
  in
  {
    workload = wl.Workloads.Workload.name;
    combo;
    bytes_before = e.bytes_before;
    bytes_after = e.bytes_after;
    overhead_pct =
      100. *. float_of_int (e.bytes_after - e.bytes_before)
      /. float_of_int e.bytes_before;
    composite_ok =
      (match composite.value with Some v -> Bignum.equal v w | None -> false);
    confidence = composite.confidence;
    members;
    equivalent =
      Stackvm.Compile.equivalent_on base marked
        ~inputs:(input :: wl.Workloads.Workload.alt_inputs);
  }

let default_workloads () = [ Workloads.Caffeine.suite; Workloads.Jesslite.engine ]

let run ?(workloads = default_workloads ()) () =
  Scheme.Builtin.ensure ();
  List.concat_map (fun wl -> List.map (case wl) combos) workloads

let print rows =
  Common.header "DWM: double-watermark interference (two schemes, one program)";
  Common.row
    (Printf.sprintf "%-12s %-10s %8s %8s %7s %5s %5s  %s" "workload" "combo"
       "before" "after" "ovh%" "comp" "equiv" "members");
  List.iter
    (fun r ->
      Common.row
        (Printf.sprintf "%-12s %-10s %8d %8d %6.1f%% %5s %5s  %s (conf %.3f)"
           r.workload r.combo r.bytes_before r.bytes_after r.overhead_pct
           (if r.composite_ok then "ok" else "LOST")
           (if r.equivalent then "ok" else "DIFF")
           r.members r.confidence))
    rows
