(* The paper's bytecode track (CRT-split pieces in stack-VM branch
   behaviour) behind the generic interface.  The adapter forwards the
   library-wide defaults unchanged, so the generic path is bit-for-bit the
   direct [Jwm] entry points (a qcheck property in test_scheme holds it to
   that). *)

open Watermarker

module M = struct
  let name = "jwm"

  let caps =
    {
      track = Vm;
      max_bits = 0;
      blind = true;
      stealth =
        "piece generators at cold traced blocks; stealth mode defeats \
         residue constant-folding";
      attack_surface =
        "distortive bytecode attacks; piece deletion past CRT redundancy; \
         §5.2.2 double watermarking";
      locator_passes = [ "vmlint"; "loops" ];
      (* the default (non-stealth) embedding guards pieces with foldable
         opaque predicates, so vmlint locates every marked function;
         only the stealth generators push this below 1.0 *)
      locatability = 1.0;
      (* CRT piece redundancy rides out distortive rewrites and survives
         both strip attacks; only sustained trace corruption past the
         redundancy margin degrades it *)
      resilience_floor = 0.55;
    }

  let nbits (spec : spec) = spec.bits

  let to_spec value (spec : spec) =
    {
      Jwm.Embed.passphrase = spec.key;
      watermark = value;
      watermark_bits = spec.bits;
      pieces = spec.redundancy;
      input = spec.input;
    }

  let embed_with ?trace value spec = function
    | Vm_program p ->
        let r = Jwm.Embed.embed ?trace ~seed:spec.seed ?fuel:spec.fuel (to_spec value spec) p in
        {
          carrier = Vm_program r.Jwm.Embed.program;
          aux = "";
          bytes_before = r.Jwm.Embed.bytes_before;
          bytes_after = r.Jwm.Embed.bytes_after;
          detail =
            Printf.sprintf "%d piece generators inserted"
              (List.length r.Jwm.Embed.insertions);
        }
    | _ -> invalid_arg "scheme jwm: requires a stack-VM program carrier"

  let embed value spec carrier = embed_with value spec carrier
  let embed_traced = Some (fun trace -> embed_with ~trace)

  let of_outcome (o : Jwm.Recognize.outcome) =
    {
      value = o.value;
      confidence = o.partial.Jwm.Recognize.confidence;
      detail =
        Printf.sprintf "%d/%d primes covered, %d pieces%s"
          o.partial.Jwm.Recognize.primes_covered
          o.partial.Jwm.Recognize.primes_total
          o.partial.Jwm.Recognize.pieces_recovered
          (match o.diagnostic with None -> "" | Some d -> "; " ^ d);
    }

  let recognize ?aux (spec : spec) = function
    | Vm_program p ->
        ignore aux;
        of_outcome
          (Jwm.Recognize.recognize ?fuel:spec.fuel ~passphrase:spec.key
             ~watermark_bits:spec.bits ~input:spec.input p)
    | _ -> invalid_arg "scheme jwm: requires a stack-VM program carrier"

  (* genuinely incremental: events fold straight into the CRT residue
     accumulators, and [decide] answers [true] as soon as the recovered
     value's redundancy margin clears the confidence target *)
  let sink =
    Some
      (fun (spec : spec) ->
        let s = Jwm.Recognize.stream_start ~passphrase:spec.key ~watermark_bits:spec.bits () in
        {
          push = Jwm.Recognize.stream_push s;
          decide = (fun () -> Jwm.Recognize.stream_decide s);
          finish = (fun () -> of_outcome (Jwm.Recognize.stream_finish s));
        })
end

let watermarker = (module M : WATERMARKER)
