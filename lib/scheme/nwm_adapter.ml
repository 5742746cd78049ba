(* The paper's native track (branch-function call-site ordering) behind the
   generic interface.  Embedding consumes assembly (the rewriter-level IR)
   and yields a binary; recognition is non-blind — the begin/end window of
   the watermark region travels in [aux]. *)

open Watermarker

module M = struct
  let name = "nwm"

  let caps =
    {
      track = Native;
      max_bits = 0;
      blind = false;
      stealth =
        "branch-function calls hidden among decoy obfuscated jumps; \
         tamper-proofed cold jumps";
      attack_surface =
        "call-site rerouting (§5.2.2 trampolines), region snipping broken \
         by tamper cells";
      locator_passes = [ "nlint" ];
      (* branch functions have an unmistakable static shape (nlint's
         branch-function rule); the scheme's resilience rests on
         tamper-proofing, not on hiding the region *)
      locatability = 1.0;
      (* distortive rewrites break the tamper-proofed binary (that is the
         §5.2.2 claim) and take the extraction window with it: resilience
         here means surviving the targeted call-site attacks, not the
         rewrites *)
      resilience_floor = 0.25;
    }

  let nbits (spec : spec) = spec.bits

  let aux_of ~begin_addr ~end_addr = Printf.sprintf "%d %d" begin_addr end_addr

  let parse_aux = function
    | None | Some "" -> Error "scheme nwm is non-blind: aux \"begin end\" required"
    | Some s -> (
        match String.split_on_char ' ' (String.trim s) with
        | [ b; e ] -> (
            match (int_of_string_opt b, int_of_string_opt e) with
            | Some b, Some e -> Ok (b, e)
            | _ -> Error "scheme nwm: malformed aux window")
        | _ -> Error "scheme nwm: malformed aux window")

  let embed value spec = function
    | Native_source asm ->
        let r =
          Nwm.Embed.embed ~seed:spec.seed ?fuel:spec.fuel ~watermark:value
            ~bits:spec.bits ~training_input:spec.input asm
        in
        {
          carrier = Native_binary r.Nwm.Embed.binary;
          aux = aux_of ~begin_addr:r.Nwm.Embed.begin_addr ~end_addr:r.Nwm.Embed.end_addr;
          bytes_before = r.Nwm.Embed.bytes_before;
          bytes_after = r.Nwm.Embed.bytes_after;
          detail =
            Printf.sprintf "%d call slots, %d tamper cells"
              (List.length r.Nwm.Embed.call_slots)
              r.Nwm.Embed.tamper_cells;
        }
    | _ -> invalid_arg "scheme nwm: requires a native assembly carrier"

  let embed_traced = None

  let recognize ?aux (spec : spec) = function
    | Native_binary bin -> (
        match parse_aux aux with
        | Error e -> { value = None; confidence = 0.; detail = e }
        | Ok (begin_addr, end_addr) -> (
            match
              Nwm.Extract.extract ?fuel:spec.fuel bin ~begin_addr ~end_addr
                ~input:spec.input
            with
            | Ok ext ->
                {
                  value = Some (Nwm.Extract.watermark ext);
                  confidence = 1.;
                  detail =
                    Printf.sprintf "%d call sites traced"
                      (List.length ext.Nwm.Extract.call_sites);
                }
            | Error e -> { value = None; confidence = 0.; detail = e }))
    | _ -> invalid_arg "scheme nwm: requires a native binary carrier"

  let sink = None
end

let watermarker = (module M : WATERMARKER)
