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

let carrier_size = function
  | Vm_program p -> Stackvm.Serialize.size_in_bytes p
  | Native_source a -> Nativesim.Binary.size (Nativesim.Asm.assemble a)
  | Native_binary b -> Nativesim.Binary.size b

type embedding = {
  carrier : carrier;
  aux : string;
  bytes_before : int;
  bytes_after : int;
  detail : string;
}

type recovered = { value : Bignum.t option; confidence : float; detail : string }

type sink = { push : int -> unit; decide : unit -> bool; finish : unit -> recovered }

module type WATERMARKER = sig
  val name : string
  val caps : caps
  val nbits : spec -> int
  val embed : Bignum.t -> spec -> carrier -> embedding

  val embed_traced :
    (Stackvm.Trace.t -> Bignum.t -> spec -> carrier -> embedding) option

  val recognize : ?aux:string -> spec -> carrier -> recovered

  val sink : (spec -> sink) option
end

let recognize_events mk spec events =
  let s = mk spec in
  Stackvm.Tracebuf.iter s.push events;
  s.finish ()

let run_sink ?(decide_every = 4096) s spec prog =
  let code = Stackvm.Compile.of_program prog in
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
  match Stackvm.Compile.run_streaming ~fuel code ~input:spec.input ~push with
  | `Completed _ -> `Completed
  | `Stopped steps -> `Stopped steps
