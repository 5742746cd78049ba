(** A generic worklist fixpoint solver over integer-indexed nodes.

    One functor serves every dataflow pass in the tree: forward passes
    (constant propagation, reachability) emit contributions to
    successor nodes, backward passes (liveness) to predecessors.  A node's
    fact is the join of all contributions made to it; nodes that never
    receive a contribution are unreached, which gives forward passes
    reachability for free.

    Instantiated for both the stack VM ({!Analysis.Vmconst},
    {!Analysis.Vmlive}) and the native simulator ({!Analysis.Nconst}). *)

module type LATTICE = sig
  type t

  val equal : t -> t -> bool

  val join : t -> t -> t
end

module Make (L : LATTICE) : sig
  type facts = (int, L.t) Hashtbl.t

  val fact : facts -> int -> L.t option
  (** [None] means the node was never reached by a contribution. *)

  val solve :
    ?max_steps:int ->
    seeds:(int * L.t) list ->
    transfer:(int -> L.t -> (int * L.t) list) ->
    unit ->
    facts
  (** Iterate [transfer] from [seeds] to a fixpoint.  [transfer node fact]
      returns the contributions the node makes to other nodes given its
      current (just-joined) fact; omitting an edge prunes it (useful for
      feasible-branch propagation).  Raises [Failure] after [max_steps]
      iterations (default one million) — a safety net against a
      non-monotone transfer. *)
end
