open Watermarker

let encode = function
  | Vm_program p -> Stackvm.Serialize.encode p
  | c -> Nativesim.Binary.encode (native_binary c)

let decode track bytes =
  match track with
  | Vm -> Option.map (fun p -> Vm_program p) (Stackvm.Serialize.decode_opt bytes)
  | Native -> ( try Some (Native_binary (Nativesim.Binary.decode bytes)) with _ -> None)

let compile track src =
  match track with
  | Vm -> Vm_program (Minic.To_stackvm.compile_source src)
  | Native -> Native_source (Minic.To_native.compile_source src)

let of_workload track w =
  match track with
  | Vm -> Vm_program (Workloads.Workload.vm_program w)
  | Native -> Native_source (Workloads.Workload.native_program w)

let keyed carrier = carrier_track carrier = Vm

let vm_program = function
  | Vm_program p -> p
  | Native_source _ | Native_binary _ -> invalid_arg "Scheme.Track: a native carrier has no branch trace"

let branch_events (spec : spec) carrier =
  let fuel = Option.value spec.fuel ~default:200_000_000 in
  fst (Stackvm.Trace.record ~fuel (vm_program carrier) ~input:spec.input)

(* ---- attacks ---- *)

(* The native vocabulary: each entry gets the attack's generator, the
   spec, the embedded region window (forced only by the attacks that
   trace the program) and the binary. *)
let native_attacks =
  let open Nattacks in
  [
    ("noop-insertion", fun rng _ _ b -> Attacks.noop_insertion ~rate:0.05 rng b);
    ("branch-sense-inversion", fun rng _ _ b -> Attacks.branch_sense_inversion ~fraction:1.0 rng b);
    ( "double-watermark",
      fun _ (spec : spec) _ b ->
        let seed2 = Int64.lognot spec.seed in
        let second = Bignum.random_bits (Util.Prng.create seed2) spec.bits in
        Attacks.double_watermark ~seed:seed2 ~watermark:second ~bits:spec.bits
          ~training_input:spec.input b );
    ( "bypass",
      fun rng (spec : spec) window b ->
        let begin_addr, end_addr = Lazy.force window in
        Attacks.bypass rng b ~begin_addr ~end_addr ~input:spec.input );
    ( "reroute",
      fun rng (spec : spec) window b ->
        let begin_addr, end_addr = Lazy.force window in
        Attacks.reroute rng b ~begin_addr ~end_addr ~input:spec.input );
    ("static-strip", fun _ _ _ b -> (Static_strip.strip b).Static_strip.binary);
  ]

let attack_names = function
  | Vm -> "identity" :: List.map fst Vmattacks.Attacks.all
  | Native -> "identity" :: List.map fst native_attacks

let region aux = match Nwm_adapter.window (Some aux) with Ok w -> w | Error e -> failwith e

let attack name (spec : spec) ~aux carrier =
  let rng = Util.Prng.create spec.seed in
  if name = "identity" then carrier
  else
    match carrier with
    | Vm_program p -> (
        match List.assoc_opt name Vmattacks.Attacks.all with
        | Some a -> Vm_program (a rng p)
        | None -> failwith ("unknown attack: " ^ name))
    | Native_source _ | Native_binary _ -> (
        match List.assoc_opt name native_attacks with
        | Some a -> Native_binary (a rng spec (lazy (region aux)) (native_binary carrier))
        | None -> failwith ("unknown native attack: " ^ name))

(* ---- the audit's locate step ---- *)

type located = {
  passes : string list;
  marked : string list;
  flagged : string list;
  clean_flagged : string list;
  ndiags : int;
}

let locate ~passes ~clean (e : embedding) =
  match clean with
  | Vm_program program ->
      let marked = vm_program e.carrier in
      let passes =
        match List.filter (fun p -> List.mem p Analysis.Locator.known_passes) passes with
        | [] -> Analysis.Locator.default_passes
        | ps -> ps
      in
      (* ground truth: the functions the embedder added or rewrote *)
      let clean_code = Hashtbl.create 16 in
      Array.iter
        (fun (f : Stackvm.Program.func) -> Hashtbl.replace clean_code f.Stackvm.Program.name f)
        program.Stackvm.Program.funcs;
      let marked_fns =
        Array.to_list marked.Stackvm.Program.funcs
        |> List.filter_map (fun (f : Stackvm.Program.func) ->
               match Hashtbl.find_opt clean_code f.Stackvm.Program.name with
               | Some g when g = f -> None
               | _ -> Some f.Stackvm.Program.name)
        |> List.sort compare
      in
      let report = Analysis.Locator.run ~passes marked in
      let clean_report = Analysis.Locator.run ~passes program in
      {
        passes;
        marked = marked_fns;
        flagged = report.Analysis.Locator.flagged;
        clean_flagged = clean_report.Analysis.Locator.flagged;
        ndiags = List.length report.Analysis.Locator.diags;
      }
  | Native_source _ | Native_binary _ ->
      (* the native track has no function granularity: the embedded
         region plays the role of the single "marked function" *)
      let begin_addr, end_addr = region e.aux in
      let clean_diags = Analysis.Nlint.lint (native_binary clean) in
      let marked_diags = Analysis.Nlint.lint (native_binary e.carrier) in
      let in_region (d : Analysis.Diag.t) =
        match d.Analysis.Diag.loc with
        | Analysis.Diag.Native { addr } -> addr >= begin_addr && addr < end_addr
        | _ -> false
      in
      {
        passes = [ "nlint" ];
        marked = [ "region" ];
        flagged = (if List.exists in_region marked_diags then [ "region" ] else []);
        clean_flagged = (if clean_diags <> [] then [ "binary" ] else []);
        ndiags = List.length marked_diags;
      }
