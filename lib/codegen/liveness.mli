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

(** Per-domain working arrays, reused from function to function, so
    the allocator's working storage is not allocated per function.
    [ints k n] is slot [k]'s array, at least [n] long, holding whatever
    its last user left in it ([floats] likewise, one slot); [grow k a
    len] is a longer one for slot [k] holding the first [len] ints of
    [a].  There are 32 int slots.  {!analyze},
    {!Interference.build} and {!Color} number their slots from 0 each:
    the first two use theirs only inside one call, and the colorer
    between the calls it makes to them.  A domain runs one colorer at
    a time (no compile runs on a second thread of a domain), so no two
    uses of a slot overlap. *)
module Scratch : sig
  val ints : int -> int -> int array
  val floats : int -> int -> float array
  val grow : int -> int array -> int -> int array
end

(** What the allocator asks of each mnemonic — its destination kind
    (the backend's [ra_dst]) and whether it is one of the mover's
    register-to-register spellings.  {!Color} makes one per backend, so
    each distinct mnemonic is classified once, whatever the function or
    round, and the classes are shared by every domain without a lock.
    A mnemonic is found by physical equality first (emitted mnemonics
    are shared constants), then by [String.equal]. *)
type mnemonics

val mnemonics :
  ra:Backend.regalloc_info ->
  move_mnemonics:string list ->
  is_jump:(string -> bool) ->
  mnemonics

(** The [is_jump] it was made with. *)
val is_jump : mnemonics -> string -> bool

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

    {b Live sets.}  Only the non-local names take part in the block
    dataflow: the physical registers and the {e globals}, the virtual
    registers upward-exposed (read before written) in some block.  A
    virtual register that is not a global is live out of no block.
    [gid.(v)] is virtual register [v]'s global number (-1 if it has
    none) and [glob.(g)] global [g]'s node.  Block [b]'s live-out set
    is the [stride] words [live_out.(b * stride)] ..: word 0 holds the
    physical nodes as a register mask, and global [g] is bit [g mod 63]
    of word [1 + g / 63]. *)
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
  gid : int array;  (** per virtual register: global number or -1 *)
  glob : int array;  (** per global: its node *)
  stride : int;  (** words per live-set row: [1 + ceil (globals / 63)] *)
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

(** [analyze mn ~vbase ~nvregs insns] computes def/use, builds basic
    blocks (with loop depths from DFS back edges) and solves backward
    liveness of the non-local names to a fixpoint. *)
val analyze : mnemonics -> vbase:int -> nvregs:int -> Insn.t array -> t

(** Loop depth of the block containing instruction [i]. *)
val depth_at : t -> int -> int
