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

(* What a condition snippet at one site is planned from: every traced
   variable readable there, and the first that tells the site's first two
   visits apart ([None]: the snippet brings its own visit counter). *)
type condition_site = { pool : Codegen.discriminator list; discriminator : Codegen.discriminator option }

type prepared = {
  host : Program.t;
  input : int list;
  visits : (int * int, Trace.snapshot list) Hashtbl.t;
  sites : ((int * int) * int) array;
  weights : float array;
  host_bytes : int;
  lock : Mutex.t;
  (* filled on first use, under [lock]: each function's definitely-assigned
     sets, each site's condition material (outer [None]: not yet known),
     and the codec parameters of every (passphrase, width) asked for *)
  assigned : bool array option array option array;
  conditions : condition_site option option array;
  mutable params : ((string * int) * Codec.Params.t) list;
}

(* First insertion wins, so every reader of a slot sees one value; the
   computation runs outside the lock and is deterministic, so a racing
   duplicate only costs time. *)
let memo host ~find ~store compute =
  match Mutex.protect host.lock find with
  | Some v -> v
  | None ->
      let v = compute () in
      Mutex.protect host.lock (fun () ->
          match find () with
          | Some winner -> winner
          | None ->
              store v;
              v)

let params_for host ~passphrase ~watermark_bits =
  let key = (passphrase, watermark_bits) in
  memo host
    ~find:(fun () -> List.assoc_opt key host.params)
    ~store:(fun p -> host.params <- (key, p) :: host.params)
    (fun () -> Codec.Params.make ~passphrase ~watermark_bits ())

let assigned_in host fidx =
  memo host
    ~find:(fun () -> host.assigned.(fidx))
    ~store:(fun t -> host.assigned.(fidx) <- Some t)
    (fun () -> Verify.assigned host.host.Program.funcs.(fidx))

(* Snippets may only read host locals every path to the site has
   written. *)
let condition_at host i =
  memo host
    ~find:(fun () -> host.conditions.(i))
    ~store:(fun c -> host.conditions.(i) <- Some c)
    (fun () ->
      let (fidx, pc), _count = host.sites.(i) in
      match Hashtbl.find_opt host.visits (fidx, pc) with
      | Some (s0 :: s1 :: _) ->
          let allowed =
            match (assigned_in host fidx).(pc) with
            | Some a -> fun k -> k < Array.length a && a.(k)
            | None -> fun _ -> false
          in
          let nlocals = host.host.Program.funcs.(fidx).Program.nlocals in
          Some
            {
              pool = Codegen.find_pool ~allowed s0 s1 ~nlocals;
              discriminator = Codegen.find_discriminator ~allowed s0 s1 ~nlocals;
            }
      | _ -> None)

let prepare_host ?fuel ?trace ~params ~input prog =
  let trace =
    match trace with Some t -> t | None -> Trace.capture ?fuel ~want_snapshots:true prog ~input
  in
  (match trace.Trace.result.Interp.outcome with
  | Interp.Finished _ -> ()
  | Interp.Trapped { reason; _ } -> failwith ("Embed.embed: program traps on the secret input: " ^ reason)
  | Interp.Out_of_fuel -> failwith "Embed.embed: tracing ran out of fuel");
  let sites = Array.of_list (Trace.hot_blocks trace) in
  if Array.length sites = 0 then failwith "Embed.embed: no traced insertion sites";
  {
    host = prog;
    input;
    visits = trace.Trace.visits;
    sites;
    (* Weight sites inversely to execution frequency (§3.2). *)
    weights = Array.map (fun (_, count) -> 1.0 /. float_of_int count) sites;
    host_bytes = Serialize.size_in_bytes prog;
    lock = Mutex.create ();
    assigned = Array.make (Array.length prog.Program.funcs) None;
    conditions = Array.make (Array.length sites) None;
    params;
  }

let prepare ?fuel ?trace ~input prog = prepare_host ?fuel ?trace ~params:[] ~input prog

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

let embed_prepared ?(seed = 0x1234_5678L) ?(stealth = false) host (spec : spec) =
  if spec.input <> host.input then invalid_arg "Embed.embed_prepared: the host was prepared on another input";
  let params = params_for host ~passphrase:spec.passphrase ~watermark_bits:spec.watermark_bits in
  if not (Codec.Params.fits params spec.watermark) then
    invalid_arg "Embed.embed: watermark does not fit the derived parameters";
  let prog = host.host in
  let rng = Util.Prng.create seed in
  let sink_global = prog.Program.nglobals in
  let next_global = ref (sink_global + 1) in
  let statements = Codec.Pieces.select params ~rng ~watermark:spec.watermark ~count:spec.pieces in
  let plan_piece statement =
    let site = Util.Prng.weighted_index rng host.weights in
    let (fidx, pc), _count = host.sites.(site) in
    let f = prog.Program.funcs.(fidx) in
    let bits = Codec.Statement.bits params statement in
    let first_local = f.Program.nlocals in
    let condition_choice =
      match condition_at host site with
      | Some { pool; discriminator = Some d } -> Some (d, pool, None, Condition_existing)
      | Some { pool; discriminator = None } ->
          let g = !next_global in
          Some (Codegen.fallback_discriminator ~counter_global:g, pool, Some g, Condition_counter)
      | None -> None
    in
    let use_condition = Option.is_some condition_choice && Util.Prng.bool rng in
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
  { program; insertions; params; bytes_before = host.host_bytes; bytes_after = Serialize.size_in_bytes program }

(* One-shot: the parameters come first, so a watermark that does not fit
   fails before the host is traced. *)
let embed ?seed ?fuel ?trace ?stealth (spec : spec) prog =
  let params = Codec.Params.make ~passphrase:spec.passphrase ~watermark_bits:spec.watermark_bits () in
  if not (Codec.Params.fits params spec.watermark) then
    invalid_arg "Embed.embed: watermark does not fit the derived parameters";
  let host =
    prepare_host ?fuel ?trace ~params:[ ((spec.passphrase, spec.watermark_bits), params) ] ~input:spec.input prog
  in
  embed_prepared ?seed ?stealth host spec
