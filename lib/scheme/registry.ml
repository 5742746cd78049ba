exception Duplicate of string
exception Unknown of string

let () =
  Printexc.register_printer (function
    | Duplicate name -> Some (Printf.sprintf "duplicate scheme registration: %S" name)
    | Unknown name -> Some (Printf.sprintf "unknown watermarking scheme: %S" name)
    | _ -> None)

let table : (string, (module Watermarker.WATERMARKER)) Hashtbl.t =
  Hashtbl.create 8

let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let register (module W : Watermarker.WATERMARKER) =
  if W.name = "" then invalid_arg "Registry.register: empty scheme name";
  if String.contains W.name '+' then
    invalid_arg "Registry.register: '+' is reserved for composed schemes";
  with_lock (fun () ->
      if Hashtbl.mem table W.name then raise (Duplicate W.name);
      Hashtbl.add table W.name (module W : Watermarker.WATERMARKER))

let find name = with_lock (fun () -> Hashtbl.find_opt table name)

let find_exn name =
  match find name with Some w -> w | None -> raise (Unknown name)

let names () =
  with_lock (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) table [])
  |> List.sort String.compare

let all () = List.map find_exn (names ())
