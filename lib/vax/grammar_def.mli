open Import

(** The VAX machine description grammar.

    The description is the text file [lib/vax/vax.mdg], embedded in the
    library and parsed by {!Gg_grammar.Mdg}: generic productions,
    type-replicated (paper section 6.4).  It is {e factored} (paper
    section 4): address computations are encapsulated by the [ea.t]
    non-terminals, operand classes by [rval.t]/[lval.t]/[mem.t]/[imm.t],
    and values in registers by [reg.t].  The sentential symbol is
    [stmt].

    [int_types] and [float_types] cut the description's type classes
    down to the types they list.  The other options are the file's
    [%if] flags, and reproduce the paper's design alternatives:
    - [reverse_ops] adds patterns for the reverse operators introduced
      by evaluation ordering (section 5.1.3, quantified in the
      reverse-ops ablation benchmark);
    - [overfactored] groups [Plus] and [Mul] into an operator-class
      non-terminal together with [Or]/[Xor], reproducing the
      over-factoring mistake of section 6.2.1;
    - [with_bridges] includes the bridge productions that remove the
      syntactic blocks in the long addressing-mode patterns (sections
      6.2.2 and 6.3) — disable to observe the blocks. *)

type options = {
  int_types : Dtype.t list;
  float_types : Dtype.t list;
  reverse_ops : bool;
  overfactored : bool;
  with_bridges : bool;
  condition_code_fix : bool;
      (** include the [Branch Cmp Dreg Zero Label] production that
          section 6.2.1 adds to repair the over-factored condition-code
          assumption; disabling it reproduces the original bug (a branch
          on stale condition codes) *)
}

val default : options

(** The instruction-table cluster base of a binary operator, reverse
    operators by their forward one: [Rminus] -> ["sub"]. *)
val cluster_of_binop : Op.binop -> string

(** The [%if] flag values of [options], by the names the [.mdg] files
    use: [reverse_ops], [overfactored], [with_bridges],
    [condition_code_fix]. *)
val flags : options -> (string * bool) list

(** The types the [.mdg] files' classes are cut down to:
    [int_types @ float_types]. *)
val types : options -> Dtype.t list

(** The generic (pre-replication) schemas; their count is the paper's
    "458 productions before type replication" statistic. *)
val schemas : options -> Schema.t list

(** The replicated grammar. *)
val grammar : options -> Grammar.t

(** [grammar default], built once. *)
val default_grammar : Grammar.t Lazy.t

(** Tree-language description matching [options] (for the block
    checker). *)
val treelang : options -> Treelang.t
