(* A mutex rather than [Lazy]: the batch engine resolves schemes from
   every pool domain, and forcing one suspension from two domains at once
   raises [Lazy.Undefined]. *)
let ensure =
  let lock = Mutex.create () and registered = ref false in
  fun () ->
    Mutex.protect lock (fun () ->
        if not !registered then begin
          List.iter Registry.register
            [
              Jwm_adapter.watermarker; Nwm_adapter.watermarker;
              Gwm_adapter.watermarker;
            ];
          registered := true
        end)

let find name =
  ensure ();
  match String.split_on_char '+' name with
  | [] | [ "" ] -> None
  | [ _ ] -> Registry.find name
  | parts -> (
      let members = List.map Registry.find parts in
      if List.for_all Option.is_some members then
        match Compose.compose (List.map Option.get members) with
        | m -> Some m
        | exception Invalid_argument _ -> None
      else None)

let find_exn name =
  match find name with Some w -> w | None -> raise (Registry.Unknown name)

let names () =
  ensure ();
  Registry.names ()

let all () =
  ensure ();
  Registry.all ()
