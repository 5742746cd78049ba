(** Bytecode rewriting primitives.

    Both the embedder (Section 3.2 inserts watermark code at traced
    locations) and the distortive attack suite transform programs by
    splicing instructions into function bodies; branch targets must be
    relocated consistently.  Inserted snippets use {e snippet-relative}
    targets (0 = first inserted instruction), so a snippet can carry
    internal loops without knowing where it will land. *)

val insert : Program.func -> at:int -> Instr.t list -> Program.func
(** [insert f ~at code] places [code] immediately before the instruction
    currently at index [at] (or at the end when [at = length]).  Existing
    targets [>= at] are shifted, so branches that used to reach [at] now
    enter the inserted code; snippet targets are rebased from
    snippet-relative to absolute.  Raises [Invalid_argument] on a bad
    position.  The one-element case of {!insert_many}. *)

val insert_many : Program.func -> (int * Instr.t list) list -> Program.func
(** [insert_many f inserts] places every [(at, code)] in one pass over [f]
    (all positions in [f]'s own coordinates).  The result equals folding
    {!insert} over [inserts] stably sorted by descending [at] — ties apply
    in list order, so the last of them lands first — but costs one copy of
    the function instead of one per snippet. *)

val append_raw : Program.func -> Instr.t list -> Program.func
(** Append code at the end without any target adjustment: the appended
    instructions must already use absolute targets (used for trampolines);
    existing code is unchanged. *)

val with_locals : Program.func -> int -> Program.func
(** Grow the local-slot count to at least the given value. *)

val fresh_local : Program.func -> int * Program.func
(** Allocate one new local slot; returns its index and the grown
    function. *)

val expand : Program.func -> f:(int -> Instr.t -> Instr.t list option) -> Program.func
(** [expand f ~f:g] replaces instruction [pc] by the list [g pc instr]
    ([None] keeps it).  Branch targets inside returned lists are in {e old}
    coordinates (any pre-expansion pc); after layout, every target [t] is
    remapped to the new position of old instruction [t].  Used by attacks
    that rewrite single instructions into sequences (branch-sense
    inversion, constant splitting, ...). *)

val blocks : Program.func -> (int * int) list
(** Basic blocks as [(leader, length)] pairs, in layout order. *)

val reorder_blocks : Program.func -> order:int list -> Program.func
(** Permute the layout of basic blocks ([order] lists current block
    indices in their new order; block 0 must stay first so that entry is
    preserved).  Explicit jumps are inserted where a block used to rely on
    fall-through, and all targets are relocated — a semantics-preserving
    layout shuffle, as performed by the basic-block-reordering attack.
    Raises [Invalid_argument] if [order] is not a permutation keeping 0
    first. *)
