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

  (** Nodes per word (63). *)
  val bits : int

  (** The index of the single set bit of a power of two. *)
  val bit_index : int -> int
end

val nphys : int

(** What the allocator asks of each mnemonic — its destination kind
    (the backend's [ra_dst]) and whether it is one of the mover's
    register-to-register spellings — memoised per function, so each
    distinct mnemonic is classified once however many rounds run. *)
type mnemonics

val mnemonics :
  ra:Backend.regalloc_info ->
  move_mnemonics:string list ->
  is_jump:(string -> bool) ->
  mnemonics

(** One function's def/use, control-flow graph and live-out sets, all
    in pointer-free int arrays.

    {b Compressed rows.}  Per-instruction and per-block lists are an
    offset array plus one flat array: instruction [i] defines the
    nodes [defs.(def_off.(i))] .. [defs.(def_off.(i+1) - 1)] and uses
    [uses.(use_off.(i))] .. [uses.(use_off.(i+1) - 1)] (each
    [off] array has one entry past the last instruction).  Defs and
    uses are in operand order, duplicates kept.  Block [b]'s
    successors are [succ.(succ_off.(b))] .. (a branch target before
    the fall-through) and its predecessors [pred.(pred_off.(b))] ..,
    in ascending block order, one entry per edge.

    {b Live sets.}  Block [b]'s live-out set is the [stride] words
    [live_out.(b * stride)] ..: word 0 holds the physical nodes as a
    register mask, and virtual node [nphys + v] is bit [v mod 63] of
    word [1 + v / 63] — so words [1 ..] line up word for word with a
    row of the {!Interference} matrix. *)
type t = {
  insns : Insn.t array;
  vbase : int;
  nnodes : int;
  cls : int array;  (** mnemonic class per instruction; see {!dst_kind} *)
  def_off : int array;
  defs : int array;
  use_off : int array;
  uses : int array;
  nblocks : int;
  blk_first : int array;
  blk_last : int array;  (** inclusive *)
  succ_off : int array;
  succ : int array;
  pred_off : int array;
  pred : int array;
  depth : int array;  (** per block: loop nesting depth, 0 outside loops *)
  block_of : int array;  (** instruction index -> block index *)
  stride : int;  (** words per live-set row: [1 + ceil ((nnodes - nphys) / 63)] *)
  live_out : int array;  (** [nblocks * stride] words *)
}

val node_of : t -> int -> int
val reg_of : t -> int -> int

(** How instruction [i] treats its last operand ([Dst_none] for
    anything but an [Insn]). *)
val dst_kind : t -> int -> Backend.dst_kind

(** Whether instruction [i]'s mnemonic is a register-to-register move
    spelling (its operands are not checked). *)
val is_move_mnemonic : t -> int -> bool

(** [live_out_mem t b n]: is node [n] live out of block [b]? *)
val live_out_mem : t -> int -> int -> bool

(** Add and remove node [n] in the live-set row starting at word
    [base] of a matrix in the {!t.live_out} layout. *)
val set_node : int array -> int -> int -> unit

val clear_node : int array -> int -> int -> unit

(** [analyze mn ~vbase ~nvregs insns] computes def/use, builds basic
    blocks (with loop depths from DFS back edges) and solves backward
    liveness to a fixpoint. *)
val analyze : mnemonics -> vbase:int -> nvregs:int -> Insn.t array -> t

(** Loop depth of the block containing instruction [i]. *)
val depth_at : t -> int -> int
