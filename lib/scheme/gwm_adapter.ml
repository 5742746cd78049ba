(* The WaterRPG-style graph track behind the generic interface: blind,
   VM-track, with a recognition sink (so offline branch-stream recognition
   and the fault matrix apply to it unchanged). *)

open Watermarker

module M = struct
  let name = "gwm"

  let caps =
    {
      track = Vm;
      max_bits = 0;
      blind = true;
      stealth =
        "graph walked from xor-masked constants; decoy calls behind opaque \
         or array-valued guards";
      attack_surface =
        "walker excision; branch-sense inversion (survived via complement \
         search); trace noise past repetition";
      locator_passes = [ "vmlint"; "loops"; "taint"; "rpg" ];
      locatability = 0.9;
      (* the rpg locator finds the walker, so the guided strip ("rpg-strip")
         kills the mark outright; the floor prices that class in *)
      resilience_floor = 0.3;
    }

  let nbits (spec : spec) = spec.bits

  let embed value (spec : spec) = function
    | Vm_program p ->
        let r =
          Gwm.Embed.embed ~seed:spec.seed
            {
              Gwm.Embed.passphrase = spec.key;
              watermark = value;
              watermark_bits = spec.bits;
              copies = spec.redundancy;
              input = spec.input;
            }
            p
        in
        {
          carrier = Vm_program r.Gwm.Embed.program;
          aux = "";
          bytes_before = r.Gwm.Embed.bytes_before;
          bytes_after = r.Gwm.Embed.bytes_after;
          detail =
            Printf.sprintf "order-%d graph, %d-bit stream, walker %s"
              r.Gwm.Embed.order r.Gwm.Embed.stream_length r.Gwm.Embed.walker;
        }
    | _ -> invalid_arg "scheme gwm: requires a stack-VM program carrier"

  let prepare = None

  let of_outcome (o : Gwm.Recognize.outcome) =
    {
      value = o.value;
      confidence = o.confidence;
      detail =
        Printf.sprintf "%d clean copies of %d candidate windows%s"
          o.copies_found o.candidates
          (match o.diagnostic with None -> "" | Some d -> "; " ^ d);
    }

  let recognize ?aux (spec : spec) = function
    | Vm_program p ->
        ignore aux;
        of_outcome
          (Gwm.Recognize.recognize ?fuel:spec.fuel ~passphrase:spec.key
             ~watermark_bits:spec.bits ~input:spec.input p)
    | _ -> invalid_arg "scheme gwm: requires a stack-VM program carrier"

  (* graph recognition mines the per-site streams of the whole trace, so
     it never decides early *)
  let sink =
    Some
      (fun (spec : spec) ->
        let s = Gwm.Recognize.stream_start ~passphrase:spec.key ~watermark_bits:spec.bits in
        {
          push = Gwm.Recognize.stream_push s;
          decide = (fun () -> false);
          finish = (fun () -> of_outcome (Gwm.Recognize.stream_finish s));
        })

  let recognize_garbled = None
end

let watermarker = (module M : WATERMARKER)
