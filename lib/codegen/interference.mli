(** Interference graph over virtual registers for {!Color}, built from
    a {!Liveness} solution.  Move-aware (the source of a register move
    does not conflict with its destination) and weighted: each node's
    spill cost accumulates [use_count x 10^loop_depth x (1 + heat)],
    heat coming from the production firing counts of the provenance at
    each site. *)

type t = {
  rows : Liveness.Bits.t array;
      (** per node, the set of nodes it interferes with; symmetric and
          irreflexive *)
  forbid : int array;
      (** per-node bitmask of physical registers it must not receive *)
  moves : (int * int * int) list;
      (** coalescable moves in stream order: (instruction index,
          source, destination) as {!Liveness} node indices; an end
          below [Liveness.nphys] is a physical register *)
  weight : float array;
  occurrences : int array;
}

val interferes : t -> int -> int -> bool
val add_edge : t -> int -> int -> unit

val build :
  move_mnemonics:string list ->
  heat:(int * int) list ->
  prov:(int * int list * string) array ->
  Liveness.t ->
  t
