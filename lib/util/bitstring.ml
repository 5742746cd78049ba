type t = {
  mutable data : Bytes.t; (* bit i lives in byte i/8, bit position i mod 8 *)
  mutable len : int;
}

let create () = { data = Bytes.make 16 '\000'; len = 0 }

let length t = t.len

let ensure_capacity t n =
  let cap = Bytes.length t.data * 8 in
  if n > cap then begin
    let cap' = max n (cap * 2) in
    let data' = Bytes.make ((cap' + 7) / 8) '\000' in
    Bytes.blit t.data 0 data' 0 (Bytes.length t.data);
    t.data <- data'
  end

let unsafe_get t i =
  Char.code (Bytes.unsafe_get t.data (i lsr 3)) land (1 lsl (i land 7)) <> 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitstring.get: index out of range";
  unsafe_get t i

let append t b =
  ensure_capacity t (t.len + 1);
  let i = t.len in
  if b then begin
    let byte = Char.code (Bytes.get t.data (i lsr 3)) in
    Bytes.set t.data (i lsr 3) (Char.chr (byte lor (1 lsl (i land 7))))
  end;
  t.len <- t.len + 1

let append_int t ~value ~width =
  if width < 0 || width > 62 then invalid_arg "Bitstring.append_int: width";
  for k = 0 to width - 1 do
    append t ((value lsr k) land 1 = 1)
  done

let iter f t =
  for i = 0 to t.len - 1 do
    f (unsafe_get t i)
  done

let of_string s =
  let t = create () in
  String.iter
    (function
      | '0' -> append t false
      | '1' -> append t true
      | c -> invalid_arg (Printf.sprintf "Bitstring.of_string: bad char %C" c))
    s;
  t

let to_string t = String.init t.len (fun i -> if unsafe_get t i then '1' else '0')

let of_bool_list bs =
  let t = create () in
  List.iter (append t) bs;
  t

let equal a b =
  a.len = b.len
  &&
  let rec go i = i >= a.len || (unsafe_get a i = unsafe_get b i && go (i + 1)) in
  go 0

let concat a b =
  let t = create () in
  for i = 0 to a.len - 1 do
    append t (unsafe_get a i)
  done;
  for i = 0 to b.len - 1 do
    append t (unsafe_get b i)
  done;
  t

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Bitstring.sub";
  let r = create () in
  for i = pos to pos + len - 1 do
    append r (unsafe_get t i)
  done;
  r

let window t ~pos ~stride ~width =
  if stride < 1 then invalid_arg "Bitstring.window: stride";
  if width < 0 || width > 62 then invalid_arg "Bitstring.window: width";
  if pos < 0 || (width > 0 && pos + ((width - 1) * stride) >= t.len) then None
  else begin
    let v = ref 0 in
    for k = width - 1 downto 0 do
      v := (!v lsl 1) lor (if unsafe_get t (pos + (k * stride)) then 1 else 0)
    done;
    Some !v
  end

let is_substring ~needle ~haystack =
  let n = needle.len and h = haystack.len in
  if n = 0 then true
  else if n > h then false
  else begin
    let matches pos =
      let rec go i = i >= n || (unsafe_get haystack (pos + i) = unsafe_get needle i && go (i + 1)) in
      go 0
    in
    let rec scan pos = pos + n <= h && (matches pos || scan (pos + 1)) in
    scan 0
  end

let find_int t ~width ~value ~stride =
  let rec go pos =
    match window t ~pos ~stride ~width with
    | None -> None
    | Some v -> if v = value then Some pos else go (pos + 1)
  in
  go 0

let pp fmt t = Format.pp_print_string fmt (to_string t)
