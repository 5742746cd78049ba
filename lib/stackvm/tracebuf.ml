(* Flat, growable buffer of packed branch events.

   One event is one OCaml [int]: bit 0 is the branch direction, bits 1-31
   the pc, bits 32-62 the function index.  Appending therefore allocates
   nothing per event — the buffer doubles occasionally and everything else
   is a store and an increment — which is what makes tracing under the
   compiled engine allocation-free on the hot path. *)

type t = { mutable data : int array; mutable len : int }

let field_mask = 0x7FFF_FFFF

let pack ~fidx ~pc ~taken =
  ((fidx land field_mask) lsl 32)
  lor ((pc land field_mask) lsl 1)
  lor (if taken then 1 else 0)

let fidx e = (e lsr 32) land field_mask

let pc e = (e lsr 1) land field_mask

let taken e = e land 1 = 1

let site e = e lsr 1

let flip e = e lxor 1

let create ?(capacity = 1024) () = { data = Array.make (max 1 capacity) 0; len = 0 }

let length t = t.len

let clear t = t.len <- 0

let grow t =
  let data = Array.make (2 * Array.length t.data) 0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let[@inline] add_packed t e =
  if t.len >= Array.length t.data then grow t;
  Array.unsafe_set t.data t.len e;
  t.len <- t.len + 1

let add t ~fidx ~pc ~taken = add_packed t (pack ~fidx ~pc ~taken)

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Tracebuf.get: index out of range";
  Array.unsafe_get t.data i

let set t i e =
  if i < 0 || i >= t.len then invalid_arg "Tracebuf.set: index out of range";
  Array.unsafe_set t.data i e

let truncate t n = if n < t.len then t.len <- max 0 n

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (Array.unsafe_get t.data i)
  done

let to_packed_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (Array.unsafe_get t.data i :: acc) in
  go (t.len - 1) []
