open Import

(** The hand-written instruction table (paper Fig. 3).

    Each {e cluster}, looked up by the key stored in a production's
    [Emit] action (e.g. ["add.l"]), is an ordered list of instruction
    variants.  Selection starts at the first entry; the idiom recogniser
    (paper section 5.3.2) may then step to a later entry: a {e binding}
    idiom turns the three-address variant into the two-address one when
    a source operand matches the destination, and a {e range} idiom
    turns the two-address variant into the one-operand one when the
    remaining source is a particular constant (e.g. [addl2 $1,d] into
    [incl d]). *)

type entry = {
  print : string;  (** assembler mnemonic *)
  nops : int;  (** operands of this variant *)
  binding : bool;  (** a source equal to the destination steps down *)
  commutes : bool;  (** the paper's "<->": either source may bind *)
  range : string option;  (** range-idiom key that steps down *)
  swapped : bool;
      (** the two sources print in reverse order: [subl3 sub,min,dif]
          computes [min - sub], and [divl3] likewise *)
  sfx : string;  (** the mnemonic's type suffix, ["l"] for [addl3] *)
}

type cluster = entry list

(** Range idiom predicates, keyed by the names used in the table:
    ["$one"] — the source is the immediate 1; ["$zero"] — the immediate
    0. *)
val range_matches : string -> Mode.t -> bool

(** The range idioms proper (paper section 5.3.2, "implemented by
    functions written in C").  [range_apply key sfx src] returns the
    replacement one-operand mnemonic when the idiom fires:
    [range_apply "$add" "l" $1 = Some "incl"],
    [range_apply "$add" "l" $-1 = Some "decl"] (Phase 1b rewrites
    [a - 1] into [a + (-1)]), ["$mov"] with 0 gives [clr],
    ["$cmp"] with 0 gives [tst]. *)
val range_apply : string -> string -> Mode.t -> string option

(** Look up a cluster by key, e.g. ["add.l"], ["mov.b"], ["cvt.bl"],
    ["cmpbr.f"].  Keys follow [<generic-op>.<type-suffix>]. *)
val find : string -> cluster option

val find_exn : string -> cluster

(** Pseudo-instruction cluster keys: patterns whose "instruction" is
    really a multi-instruction expansion performed by the idiom
    recogniser (signed modulus, unsigned division/modulus, logical and,
    right shift; paper section 5.3.2). *)
val is_pseudo : string -> bool

(** All keys referenced by the machine grammar, for coverage checks. *)
val known_keys : unit -> string list
