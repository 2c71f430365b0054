(** Names of the grammar terminal symbols derived from IR trees.

    The machine description grammar and the tree lineariser must agree
    exactly on how each tree node spells as a terminal symbol; this
    module is that contract.  Names follow the paper's convention of a
    type-suffixed operator, e.g. [Plus.l], [Const.b], [Cvt.bl]
    (sections 3.1 and 6.4), with the special constants 0/1/2/4/8 given
    their own terminals [Zero.t] ... [Eight.t] (section 6.3). *)

val binop : Op.binop -> Dtype.t -> string
val unop : Op.unop -> Dtype.t -> string
val assign : Dtype.t -> string
val rassign : Dtype.t -> string
val indir : Dtype.t -> string
val name_ : Dtype.t -> string
val temp : Dtype.t -> string
val dreg : Dtype.t -> string
val autoinc : Dtype.t -> string
val autodec : Dtype.t -> string
val const : Dtype.t -> string
val fconst : Dtype.t -> string

(** [addr ty] where [ty] is the type of the lvalue whose address is
    taken. *)
val addr : Dtype.t -> string

(** [cvt ~from ~to_], e.g. [cvt ~from:Byte ~to_:Long = "Cvt.bl"]. *)
val cvt : from:Dtype.t -> to_:Dtype.t -> string

val cbranch : string
val cmp : Dtype.t -> string
val label : string
val arg : Dtype.t -> string

(** [special_const ty n] is the dedicated terminal for the special
    constants, e.g. [special_const Long 4L = Some "Four.l"]. *)
val special_const : Dtype.t -> int64 -> string option

(** [walk ~special_constants emit acc tree] calls [emit acc name node]
    for each token of [tree]'s prefix linearisation (paper section 3.1 /
    Appendix), in order: a node's own terminal, then its children's
    tokens left to right; a [Cbranch] spells [Cbranch], [Cmp.t], its
    two operands and a trailing [Label], all with the [Cbranch] node.
    When [special_constants] is true, constants 0/1/2/4/8 are emitted as
    their dedicated terminals.  The walk allocates nothing itself, and
    every [name] is a shared string built once at module
    initialisation.  Raises [Invalid_argument] on a node that Phase 1a
    removes before matching ([Call], [Land], [Lor], [Lnot], [Select],
    [Relval]). *)
val walk :
  special_constants:bool ->
  ('acc -> string -> Tree.t -> unit) ->
  'acc ->
  Tree.t ->
  unit

(** A token of the linearised input: terminal name plus the tree node it
    came from (the node is the token's semantic value). *)
type token = { term : string; node : Tree.t }

(** The tokens {!walk} emits, as a list ([special_constants] defaults to
    true). *)
val linearize : ?special_constants:bool -> Tree.t -> token list

val pp_token : token Fmt.t
