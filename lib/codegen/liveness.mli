open Import

(** Def/use and liveness over the emitted instruction stream of one
    function, computed for {!Color}.  Registers (physical and virtual)
    are mapped to dense node indices: 0..15 physical, 16.. the virtual
    registers in allocation order. *)

(** Sets of node indices, word-packed 63 to an int.  Two sets passed
    to one operation must have been made with the same size. *)
module Bits : sig
  type t

  (** [make n] is the empty set over nodes [0..n-1]. *)
  val make : int -> t

  val get : t -> int -> bool
  val set : t -> int -> unit
  val clear : t -> int -> unit
  val copy : t -> t
  val equal : t -> t -> bool

  (** [dst <- dst ∪ src], a word at a time. *)
  val union_into : src:t -> dst:t -> unit

  (** [dst <- dst − src], a word at a time. *)
  val diff_into : src:t -> dst:t -> unit

  (** The smallest member, or [-1] if the set is empty. *)
  val first : t -> int

  (** Members in ascending order.  Each word is read once, before its
      members are visited. *)
  val iter : (int -> unit) -> t -> unit
end

val nphys : int

type block = {
  first : int;
  last : int;  (** inclusive *)
  mutable succs : int list;
  mutable preds : int list;
  mutable depth : int;  (** loop nesting depth, 0 outside any loop *)
}

type t = {
  insns : Insn.t array;
  vbase : int;
  nnodes : int;
  blocks : block array;
  block_of : int array;
  def_use : (int list * int list) array;
  live_out : Bits.t array;
}

val node_of : t -> int -> int
val reg_of : t -> int -> int
val is_virtual_node : int -> bool

(** Registers written and read by one instruction, given the backend's
    last-operand classifier.  Exposed for unit tests. *)
val insn_def_use : Backend.regalloc_info -> Insn.t -> int list * int list

(** [analyze ~ra ~is_jump ~vbase ~nvregs insns] builds basic blocks
    (with loop depths from DFS back edges) and solves backward liveness
    to a fixpoint.  [is_jump] says whether a branch mnemonic is
    unconditional. *)
val analyze :
  ra:Backend.regalloc_info ->
  is_jump:(string -> bool) ->
  vbase:int ->
  nvregs:int ->
  Insn.t array ->
  t

(** Loop depth of the block containing instruction [i]. *)
val depth_at : t -> int -> int
