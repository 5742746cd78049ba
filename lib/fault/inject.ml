type plan = { seed : int64; faults : Spec.t list }

let none = { seed = 0L; faults = [] }

let make ?(seed = 1L) faults = { seed; faults }

let is_empty plan = plan.faults = []

let describe plan =
  if is_empty plan then "none"
  else
    Printf.sprintf "%s (seed %Ld)"
      (String.concat "," (List.map Spec.to_string plan.faults))
      plan.seed

let rate plan select =
  List.fold_left (fun acc f -> acc +. Option.value ~default:0.0 (select f)) 0.0 plan.faults

(* Substream derivation: fold the salt bytes into the seed with the
   SplitMix64 golden-ratio increment so distinct salts land in
   statistically independent streams. *)
let rng_for plan ~salt =
  let h = ref plan.seed in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x9E37_79B9_7F4A_7C15L)
    salt;
  Util.Prng.create !h

let roll rng r = r > 0.0 && Util.Prng.float rng 1.0 < r

(* Per event, in order: roll drop (a dropped event rolls nothing further),
   then flip, then dup; truncation comes last and counts events.  The roll
   order fixes the RNG stream, so it is part of the contract: the test
   suite holds the result to the list-based injector this one replaced.
   Events stay packed throughout; a flip is a single bit toggle. *)
let branches plan ~salt (events : Stackvm.Tracebuf.t) =
  let drop = rate plan (function Spec.Trace_drop r -> Some r | _ -> None) in
  let dup = rate plan (function Spec.Trace_dup r -> Some r | _ -> None) in
  let flip = rate plan (function Spec.Trace_flip r -> Some r | _ -> None) in
  let trunc = rate plan (function Spec.Trace_trunc r -> Some r | _ -> None) in
  if drop = 0.0 && dup = 0.0 && flip = 0.0 && trunc = 0.0 then (events, 0)
  else begin
    let rng = rng_for plan ~salt in
    let applied = ref 0 in
    let out = Stackvm.Tracebuf.create ~capacity:(max 16 (Stackvm.Tracebuf.length events)) () in
    Stackvm.Tracebuf.iter
      (fun ev ->
        if roll rng drop then incr applied
        else begin
          let ev =
            if roll rng flip then begin
              incr applied;
              Stackvm.Tracebuf.flip ev
            end
            else ev
          in
          Stackvm.Tracebuf.add_packed out ev;
          if roll rng dup then begin
            incr applied;
            Stackvm.Tracebuf.add_packed out ev
          end
        end)
      events;
    if trunc > 0.0 then begin
      let n = Stackvm.Tracebuf.length out in
      let keep = n - int_of_float (Float.round (float_of_int n *. trunc)) in
      applied := !applied + (n - max 0 keep);
      Stackvm.Tracebuf.truncate out (max 0 keep)
    end;
    (out, !applied)
  end

let artifact plan ~salt bytes =
  let byte_r = rate plan (function Spec.Byte_flip r -> Some r | _ -> None) in
  let bit_r = rate plan (function Spec.Bit_flip r -> Some r | _ -> None) in
  if byte_r = 0.0 && bit_r = 0.0 then (bytes, 0)
  else begin
    let rng = rng_for plan ~salt in
    let buf = Bytes.of_string bytes in
    let applied = ref 0 in
    for i = 0 to Bytes.length buf - 1 do
      if roll rng byte_r then begin
        incr applied;
        Bytes.set buf i (Char.chr (Util.Prng.int rng 256))
      end;
      if bit_r > 0.0 then
        for b = 0 to 7 do
          if roll rng bit_r then begin
            incr applied;
            Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor (1 lsl b)))
          end
        done
    done;
    (Bytes.to_string buf, !applied)
  end

let cache_entry plan ~salt bytes =
  let r = rate plan (function Spec.Cache_corrupt r -> Some r | _ -> None) in
  if r = 0.0 then (bytes, false)
  else begin
    let rng = rng_for plan ~salt in
    if not (roll rng r) || String.length bytes = 0 then (bytes, false)
    else begin
      (* flip a few bytes, then shear the tail: both failure shapes a
         spill file exhibits (bad sector, partial write) *)
      let buf = Bytes.of_string bytes in
      for _ = 1 to min 3 (Bytes.length buf) do
        let i = Util.Prng.int rng (Bytes.length buf) in
        Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor 0xA5))
      done;
      let keep = 1 + Util.Prng.int rng (Bytes.length buf) in
      (Bytes.sub_string buf 0 keep, true)
    end
  end

let adjust_fuel plan fuel =
  let factors = List.filter_map (function Spec.Fuel_cut f -> Some f | _ -> None) plan.faults in
  match (factors, fuel) with
  | [], f -> f
  | _, None -> None
  | factors, Some f ->
      let scaled = List.fold_left (fun acc k -> acc *. k) (float_of_int f) factors in
      Some (max 1 (int_of_float scaled))

let crash_decision plan ~salt =
  let r = rate plan (function Spec.Crash r -> Some r | _ -> None) in
  r > 0.0 && roll (rng_for plan ~salt) r

let shard_crash plan ~salt =
  let r = rate plan (function Spec.Shard_crash r -> Some r | _ -> None) in
  r > 0.0 && roll (rng_for plan ~salt) r

let journal_chunk plan ~salt chunk =
  let r = rate plan (function Spec.Journal_trunc r -> Some r | _ -> None) in
  if r = 0.0 || String.length chunk = 0 then (chunk, false)
  else begin
    let rng = rng_for plan ~salt in
    if not (roll rng r) then (chunk, false)
    else
      (* shear the tail at an arbitrary byte: the follower must treat the
         torn frame as not-yet-shipped, never as corruption *)
      let keep = Util.Prng.int rng (String.length chunk) in
      (String.sub chunk 0 keep, true)
  end

let garble plan ~salt =
  let r = rate plan (function Spec.Obs_garble r -> Some r | _ -> None) in
  if r = 0.0 then None
  else begin
    let rng = rng_for plan ~salt in
    Some
      (fun v ->
        if roll rng r then v lxor (1 + Util.Prng.int rng 0x3FFF_FFFF) else v)
  end
