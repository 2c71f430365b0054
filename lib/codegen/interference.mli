(** Interference graph over virtual registers for {!Color}, built from
    a {!Liveness} solution.  Move-aware (the source of a register move
    does not conflict with its destination) and weighted: each node's
    spill cost accumulates [use_count x 10^loop_depth x (1 + heat)],
    heat coming from the production firing counts of the provenance at
    each site.

    {b Layout.}  Nodes are virtual registers [0 .. nv-1] (liveness
    node minus {!Liveness.nphys}).  The graph is one flat bit matrix:
    node [a]'s neighbours are the [words = ceil (nv / 63)] ints
    [rows.(a * words)] .., node [b] at bit [b mod 63] of word
    [b / 63].  Every array is pointer-free. *)

type t = {
  nv : int;
  words : int;  (** ints per row *)
  rows : int array;
      (** [nv * words]: per node, the set of nodes it interferes with;
          symmetric and irreflexive.  {!Color} coalesces in place, so
          after a round the rows are no longer this graph *)
  forbid : int array;
      (** per-node bitmask of physical registers it must not receive *)
  moves : int array;
      (** coalescable moves in stream order, three ints each:
          (instruction index, source, destination) as {!Liveness} node
          indices; an end below [Liveness.nphys] is a physical
          register *)
  weight : float array;
  occurrences : int array;
}

val interferes : t -> int -> int -> bool

(** Number of coalescable moves ([Array.length moves / 3]). *)
val nmoves : t -> int

(** Node [a]'s neighbours in ascending order. *)
val neighbours : t -> int -> int list

val build :
  heat:(int * int) list ->
  prov:(int * int list * string) array ->
  Liveness.t ->
  t
