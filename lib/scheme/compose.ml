open Watermarker

let seed_for seed i =
  if i = 0 then seed
  else Int64.add seed (Int64.mul (Int64.of_int i) 0x9E37_79B9_7F4A_7C15L)

(* Length-prefixed aux concatenation: "<len>\n<bytes>" per component.
   All-blind composites stay blind: an all-empty aux list joins to "". *)
let join_auxes auxes =
  if List.for_all (( = ) "") auxes then ""
  else begin
    let buf = Buffer.create 64 in
    List.iter
      (fun a ->
        Buffer.add_string buf (string_of_int (String.length a));
        Buffer.add_char buf '\n';
        Buffer.add_string buf a)
      auxes;
    Buffer.contents buf
  end

let split_auxes n = function
  | None | Some "" -> List.init n (fun _ -> "")
  | Some s ->
      let rec go pos acc k =
        if k = 0 then List.rev acc
        else
          match String.index_from_opt s pos '\n' with
          | None -> invalid_arg "Compose: malformed composite aux"
          | Some nl ->
              let len = int_of_string (String.sub s pos (nl - pos)) in
              if nl + 1 + len > String.length s then
                invalid_arg "Compose: truncated composite aux";
              go (nl + 1 + len) (String.sub s (nl + 1) len :: acc) (k - 1)
      in
      go 0 [] n

let compose members =
  if members = [] then invalid_arg "Compose.compose: empty scheme list";
  let tracks =
    List.map (fun (module W : WATERMARKER) -> W.caps.track) members
  in
  let track = List.hd tracks in
  if not (List.for_all (( = ) track) tracks) then
    invalid_arg "Compose.compose: components must share a track";
  let module C = struct
    let name =
      String.concat "+"
        (List.map (fun (module W : WATERMARKER) -> W.name) members)

    let caps =
      {
        track;
        max_bits =
          List.fold_left
            (fun acc (module W : WATERMARKER) ->
              if W.caps.max_bits = 0 then acc
              else if acc = 0 then W.caps.max_bits
              else min acc W.caps.max_bits)
            0 members;
        blind =
          List.for_all (fun (module W : WATERMARKER) -> W.caps.blind) members;
        stealth = "composite: weakest member applies";
        attack_surface = "composite: union of member surfaces (§5.2.2)";
        locator_passes =
          List.sort_uniq compare
            (List.concat_map
               (fun (module W : WATERMARKER) -> W.caps.locator_passes)
               members);
        locatability =
          (* weakest member applies here too: the adversary only needs to
             locate one component's artifacts *)
          List.fold_left
            (fun acc (module W : WATERMARKER) -> Float.max acc W.caps.locatability)
            0. members;
        resilience_floor =
          (* unanimity recognition survives only attacks every member
             survives, so the composite floor is the independent-survival
             lower bound: the product of the member floors *)
          List.fold_left
            (fun acc (module W : WATERMARKER) -> acc *. W.caps.resilience_floor)
            1. members;
      }

    let nbits spec =
      List.fold_left
        (fun acc (module W : WATERMARKER) -> min acc (W.nbits spec))
        spec.bits members

    let embed value spec carrier =
      let _, carrier, rev =
        List.fold_left
          (fun (i, carrier, rev) (module W : WATERMARKER) ->
            let e = W.embed value { spec with seed = seed_for spec.seed i } carrier in
            (i + 1, e.carrier, e :: rev))
          (0, carrier, []) members
      in
      let embeddings = List.rev rev in
      let first = List.hd embeddings and last = List.hd rev in
      {
        carrier;
        aux = join_auxes (List.map (fun e -> e.aux) embeddings);
        bytes_before = first.bytes_before;
        bytes_after = last.bytes_after;
        detail =
          String.concat " | "
            (List.map2
               (fun (module W : WATERMARKER) (e : embedding) ->
                 W.name ^ ": " ^ e.detail)
               members embeddings);
      }

    let embed_traced = None

    let combine results =
      let values = List.filter_map (fun (_, r) -> r.value) results in
      let all_agree =
        List.length values = List.length members
        && match values with
           | [] -> false
           | v :: rest -> List.for_all (Bignum.equal v) rest
      in
      {
        value = (if all_agree then Some (List.hd values) else None);
        confidence =
          (if all_agree then
             List.fold_left (fun acc (_, r) -> min acc r.confidence) 1. results
           else 0.);
        detail =
          String.concat " | "
            (List.map
               (fun ((module W : WATERMARKER), r) ->
                 Printf.sprintf "%s: %s (%s)" W.name
                   (match r.value with
                   | Some v -> Bignum.to_string v
                   | None -> "lost")
                   r.detail)
               results);
      }

    (* a sink iff every member has one: events fan out to every member
       sink (each must see the full prefix), [decide] asks every member,
       and the composite decides only once all members have *)
    let sink =
      if List.for_all (fun (module W : WATERMARKER) -> W.sink <> None) members then
        Some
          (fun spec ->
            let sinks =
              List.map
                (fun (module W : WATERMARKER) -> ((module W : WATERMARKER), (Option.get W.sink) spec))
                members
            in
            {
              push = (fun e -> List.iter (fun (_, s) -> s.push e) sinks);
              decide = (fun () -> List.fold_left (fun all (_, s) -> s.decide () && all) true sinks);
              finish = (fun () -> combine (List.map (fun (w, s) -> (w, s.finish ())) sinks));
            })
      else None

    (* A VM program runs once, into the fan-out sink.  Only when
       translating or running it raises does each member recognize on its
       own, so each member's failure detail stays its own. *)
    let recognize ?aux spec carrier =
      let one_by_one () =
        let auxes = split_auxes (List.length members) aux in
        combine
          (List.map2
             (fun (module W : WATERMARKER) a -> ((module W : WATERMARKER), W.recognize ~aux:a spec carrier))
             members auxes)
      in
      match (sink, carrier) with
      | Some mk, Vm_program prog -> (
          let s = mk spec in
          match run_sink ~decide_every:0 s spec prog with
          | _ -> s.finish ()
          | exception _ -> one_by_one ())
      | _ -> one_by_one ()
  end in
  (module C : WATERMARKER)
