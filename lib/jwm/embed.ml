open Stackvm

type spec = {
  passphrase : string;
  watermark : Bignum.t;
  watermark_bits : int;
  pieces : int;
  input : int list;
}

type generator_kind = Loop | Condition_existing | Condition_counter

type insertion = { fidx : int; pc : int; kind : generator_kind; snippet_len : int }

type report = {
  program : Program.t;
  insertions : insertion list;
  params : Codec.Params.t;
  bytes_before : int;
  bytes_after : int;
}

type planned = { p_fidx : int; p_pc : int; p_kind : generator_kind; p_code : Instr.t list }

(* A candidate guard predicate survives only if the analyzer cannot fold
   it to a constant: the stealth mode tries the classic opaque shapes
   first, watches them fold, and falls back to trace-derived predicates
   whose leaves are live host state (statically unknown). *)
let choose_guard ~candidates ~fallback =
  match
    List.find_opt
      (fun p ->
        match Analysis.Vmconst.eval_pushes p with `Const _ | `Nonzero -> false | `Unknown -> true)
      candidates
  with
  | Some p -> p
  | None -> fallback

let embed ?(seed = 0x1234_5678L) ?fuel ?trace ?(stealth = false) spec prog =
  let params = Codec.Params.make ~passphrase:spec.passphrase ~watermark_bits:spec.watermark_bits () in
  if not (Codec.Params.fits params spec.watermark) then
    invalid_arg "Embed.embed: watermark does not fit the derived parameters";
  let rng = Util.Prng.create seed in
  let trace =
    match trace with
    | Some t -> t
    | None -> Trace.capture ?fuel ~want_snapshots:true prog ~input:spec.input
  in
  (match trace.Trace.result.Interp.outcome with
  | Interp.Finished _ -> ()
  | Interp.Trapped { reason; _ } -> failwith ("Embed.embed: program traps on the secret input: " ^ reason)
  | Interp.Out_of_fuel -> failwith "Embed.embed: tracing ran out of fuel");
  let sites = Array.of_list (Trace.hot_blocks trace) in
  if Array.length sites = 0 then failwith "Embed.embed: no traced insertion sites";
  (* Weight sites inversely to execution frequency (§3.2). *)
  let weights = Array.map (fun (_, count) -> 1.0 /. float_of_int count) sites in
  let sink_global = prog.Program.nglobals in
  let next_global = ref (sink_global + 1) in
  let statements = Codec.Pieces.select params ~rng ~watermark:spec.watermark ~count:spec.pieces in
  (* Definitely-assigned local sets of the original functions, computed on
     demand: snippets may only read host locals every path has written. *)
  let assigned_cache = Hashtbl.create 8 in
  let allowed_at fidx pc =
    let table =
      match Hashtbl.find_opt assigned_cache fidx with
      | Some t -> t
      | None ->
          let t = Verify.assigned prog.Program.funcs.(fidx) in
          Hashtbl.replace assigned_cache fidx t;
          t
    in
    match table.(pc) with
    | Some a -> fun k -> k < Array.length a && a.(k)
    | None -> fun _ -> false
  in
  let plan_piece statement =
    let (fidx, pc), _count = sites.(Util.Prng.weighted_index rng weights) in
    let f = prog.Program.funcs.(fidx) in
    let bits = Codec.Statement.bits params statement in
    let first_local = f.Program.nlocals in
    let allowed = allowed_at fidx pc in
    let snapshots = Option.value ~default:[] (Hashtbl.find_opt trace.Trace.visits (fidx, pc)) in
    let condition_choice =
      match snapshots with
      | s0 :: s1 :: _ -> begin
          let pool = Codegen.find_pool ~allowed s0 s1 ~nlocals:f.Program.nlocals in
          match Codegen.find_discriminator ~allowed s0 s1 ~nlocals:f.Program.nlocals with
          | Some d -> Some (d, pool, None, Condition_existing)
          | None ->
              let g = !next_global in
              Some (Codegen.fallback_discriminator ~counter_global:g, pool, Some g, Condition_counter)
        end
      | _ -> None
    in
    let use_condition = condition_choice <> None && Util.Prng.bool rng in
    match (use_condition, condition_choice) with
    | true, Some (discriminator, pool, counter_global, kind) ->
        (match counter_global with Some _ -> incr next_global | None -> ());
        let acc_slot = first_local in
        let guard =
          if not stealth then None
          else
            Some
              (choose_guard
                 ~candidates:
                   [
                     Opaque.false_predicate rng ~slot:acc_slot;
                     Codegen.stealth_discriminator_guard rng discriminator;
                   ]
                 ~fallback:(Codegen.stealth_discriminator_guard rng discriminator))
        in
        let code, _ =
          Codegen.condition_snippet ~pool ?guard ~rng ~bits ~discriminator ~counter_global
            ~first_local ~sink_global ()
        in
        { p_fidx = fidx; p_pc = pc; p_kind = kind; p_code = code }
    | _ ->
        let value_slot = first_local in
        let guard =
          if not stealth then None
          else
            Some
              (choose_guard
                 ~candidates:
                   [
                     Opaque.false_predicate rng ~slot:value_slot;
                     Codegen.stealth_loop_guard rng ~value_slot;
                   ]
                 ~fallback:(Codegen.stealth_loop_guard rng ~value_slot))
        in
        let code, _ = Codegen.loop_snippet ?guard ~rng ~bits ~first_local ~sink_global () in
        { p_fidx = fidx; p_pc = pc; p_kind = Loop; p_code = code }
  in
  let plans = List.map plan_piece statements in
  (* All of a function's snippets go in with one rewrite; positions are
     the original trace's. *)
  let funcs = Array.copy prog.Program.funcs in
  let by_func = Hashtbl.create 8 in
  List.iter
    (fun p ->
      Hashtbl.replace by_func p.p_fidx (p :: Option.value ~default:[] (Hashtbl.find_opt by_func p.p_fidx)))
    plans;
  Hashtbl.iter
    (fun fidx plans_for_f ->
      let f = Rewrite.insert_many funcs.(fidx) (List.map (fun p -> (p.p_pc, p.p_code)) plans_for_f) in
      (* Loop snippets need 3 scratch slots, condition snippets 1; all
         snippets in one function share them (each self-initializes). *)
      let need p = match p.p_kind with Loop -> 3 | Condition_existing | Condition_counter -> 1 in
      let extra_locals = List.fold_left (fun m p -> max m (need p)) 0 plans_for_f in
      funcs.(fidx) <- Rewrite.with_locals f (funcs.(fidx).Program.nlocals + extra_locals))
    by_func;
  let program = { prog with Program.funcs; nglobals = !next_global } in
  Verify.check_exn program;
  let insertions =
    List.map
      (fun p -> { fidx = p.p_fidx; pc = p.p_pc; kind = p.p_kind; snippet_len = List.length p.p_code })
      plans
  in
  {
    program;
    insertions;
    params;
    bytes_before = Serialize.size_in_bytes prog;
    bytes_after = Serialize.size_in_bytes program;
  }
