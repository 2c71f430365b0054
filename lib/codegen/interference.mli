(** Interference graph over virtual registers for {!Color}, built from
    a {!Liveness} solution.  Move-aware (the source of a register move
    does not conflict with its destination) and weighted: each node's
    spill cost accumulates [use_count x 10^loop_depth x (1 + heat)],
    heat coming from the production firing counts of the provenance at
    each site.

    {b Layout.}  Nodes are virtual registers [0 .. nv-1] (liveness
    node minus {!Liveness.nphys}).  The graph is compressed adjacency
    rows: node [a]'s neighbours are [adj.(adj_off.(a))] ..
    [adj.(adj_off.(a+1) - 1)], in no particular order and possibly
    repeated (a conflict recorded at two definitions is listed twice),
    so the graph takes [nv + 1] ints plus two per recorded conflict,
    not [nv * ceil (nv / 63)].  It is built by one backward scan per
    block over a sparse live set, seeded from {!Liveness}'s live-out
    rows.  Every array is pointer-free and linear in the instructions,
    nodes or edges. *)

type t = {
  nv : int;
  adj_off : int array;  (** [nv + 1] row offsets into [adj] *)
  adj : int array;
      (** per node, the nodes it interferes with; symmetric and
          irreflexive *)
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

(** Node [a]'s neighbours in ascending order (its row as a list). *)
val neighbours : t -> int -> int list

val build :
  heat:(int * int) list ->
  prov:(int * int list * string) array ->
  Liveness.t ->
  t
