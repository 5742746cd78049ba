type func = { name : string; nargs : int; nlocals : int; code : Instr.t array }

type t = { funcs : func array; nglobals : int; main : string }

let func ~name ~nargs ~nlocals code =
  if nargs < 0 || nlocals < nargs then invalid_arg "Program.func: nlocals must cover nargs";
  { name; nargs; nlocals; code = Array.of_list code }

let make ?(nglobals = 0) ?(main = "main") funcs =
  let names = List.map (fun f -> f.name) funcs in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Program.make: duplicate function names";
  { funcs = Array.of_list funcs; nglobals; main }

let find_func t name = Array.find_opt (fun f -> f.name = name) t.funcs

let func_index t name =
  let rec go i = if i >= Array.length t.funcs then None else if t.funcs.(i).name = name then Some i else go (i + 1) in
  go 0

let block_starts f =
  let n = Array.length f.code in
  let starts = Array.make n false in
  if n > 0 then starts.(0) <- true;
  Array.iteri
    (fun pc instr ->
      List.iter (fun t -> if t >= 0 && t < n then starts.(t) <- true) (Instr.targets instr);
      match instr with
      | Instr.Jump _ | Instr.If _ | Instr.Ret -> if pc + 1 < n then starts.(pc + 1) <- true
      | _ -> ())
    f.code;
  starts

let replace_func t f =
  match func_index t f.name with
  | None -> raise Not_found
  | Some i ->
      let funcs = Array.copy t.funcs in
      funcs.(i) <- f;
      { t with funcs }

let add_func t f =
  if find_func t f.name <> None then invalid_arg "Program.add_func: duplicate name";
  { t with funcs = Array.append t.funcs [| f |] }

let with_globals t n = { t with nglobals = max t.nglobals n }

let pp fmt t =
  Format.fprintf fmt "program (globals=%d, main=%s)@." t.nglobals t.main;
  Array.iter
    (fun f ->
      Format.fprintf fmt "func %s(args=%d, locals=%d):@." f.name f.nargs f.nlocals;
      Array.iteri (fun pc instr -> Format.fprintf fmt "  %4d: %a@." pc Instr.pp instr) f.code)
    t.funcs
