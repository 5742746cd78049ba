(** The native track ({!Nwm}) as a registered scheme, name ["nwm"].

    Non-blind: the [aux] string carries the watermark-region window
    ([begin_addr end_addr], space-separated decimals) that extraction
    needs. *)

val watermarker : (module Watermarker.WATERMARKER)

val window : string option -> (int * int, string) result
(** The region window an embedding's [aux] names: [Ok (begin_addr,
    end_addr)], or why the hint is absent or malformed. *)
