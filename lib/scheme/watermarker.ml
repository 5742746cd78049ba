type track = Vm | Native

let track_to_string = function Vm -> "vm" | Native -> "native"

type caps = {
  track : track;
  max_bits : int;
  blind : bool;
  stealth : string;
  attack_surface : string;
  locator_passes : string list;
  locatability : float;
  resilience_floor : float;
}

type spec = {
  key : string;
  bits : int;
  input : int list;
  seed : int64;
  fuel : int option;
  redundancy : int;
}

let default_seed = 0x1234_5678L
let default_redundancy = 40

let spec ?(seed = default_seed) ?fuel ?(redundancy = default_redundancy) ~key
    ~bits ~input () =
  { key; bits; input; seed; fuel; redundancy }

type carrier =
  | Vm_program of Stackvm.Program.t
  | Native_source of Nativesim.Asm.program
  | Native_binary of Nativesim.Binary.t

let carrier_track = function
  | Vm_program _ -> Vm
  | Native_source _ | Native_binary _ -> Native

let native_binary = function
  | Native_binary b -> b
  | Native_source a -> Nativesim.Asm.assemble a
  | Vm_program _ -> invalid_arg "Scheme.Watermarker.native_binary: a VM carrier"

type embedding = {
  carrier : carrier;
  aux : string;
  bytes_before : int;
  bytes_after : int;
  detail : string;
}

type recovered = { value : Bignum.t option; confidence : float; detail : string }

type sink = { push : int -> unit; decide : unit -> bool; finish : unit -> recovered }

type garbled = { recovered : recovered; views : int; unanimous : bool }

type prepared = Bignum.t -> spec -> embedding

module type WATERMARKER = sig
  val name : string
  val caps : caps
  val nbits : spec -> int
  val embed : Bignum.t -> spec -> carrier -> embedding

  val prepare : (spec -> carrier -> prepared) option

  val recognize : ?aux:string -> spec -> carrier -> recovered

  val sink : (spec -> sink) option

  val recognize_garbled :
    (garble:(pass:int -> int -> int) -> ?aux:string -> spec -> carrier -> garbled) option
end

let recognize_events mk spec events =
  let s = mk spec in
  Stackvm.Tracebuf.iter s.push events;
  s.finish ()

let run_sink ?(decide_every = 4096) s spec prog =
  let fuel = Option.value spec.fuel ~default:200_000_000 in
  let since = ref 0 in
  let push e =
    s.push e;
    incr since;
    !since = decide_every
    && begin
         since := 0;
         s.decide ()
       end
  in
  match Stackvm.Compile.run_streaming ~fuel (Stackvm.Compile.of_program prog) ~input:spec.input ~push with
  | `Completed _ -> `Completed
  | `Stopped steps -> `Stopped steps
  | exception e -> `Refused (Printexc.to_string e)
