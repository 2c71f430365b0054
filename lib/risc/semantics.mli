open Import

(** The RISC semantic dispatchers.

    The shared {!Gg_codegen.Semantics} machinery supplies the callback
    skeleton, the mode builder, the register manager and the output
    buffer; this module plugs in the target-specific parts: the Emit
    dispatcher that spells out load/operate/store sequences, and the
    operand mover. *)

(** The register manager's operand mover: load ([li]/[ld]/[mv]) into a
    register destination, store ([st]) a register into memory. *)
val move : Dtype.t -> src:Mode.t -> dst:Mode.t -> Insn.t list

(** The Emit dispatcher's cases, by key base: loads, stores, unary
    operators ([neg], [not]), conversions, compare-and-branch, argument
    pushes, address-of, and [Other] for every three-address operator
    (and any unknown base). *)
type kind =
  | Li
  | Ld
  | Ldinc
  | Lddec
  | St
  | St_r
  | Stinc
  | Stdec
  | Unary
  | Cvt
  | Cmpbr
  | Push
  | La
  | Other

(** A resolved Emit action and the one mnemonic it prints, if any:
    [addl] for ["add.l"], [cvtbl] for ["cvt.bl"], [cmpl] for
    ["cmpbr.l"], [stl] for ["push.l"], [""] for loads and stores, whose
    mnemonic depends on the operands. *)
type emit = { kind : kind; mn : string }

(** The RISC resolution of a grammar, computed once per grammar. *)
val actions : Grammar.t -> emit Gg_codegen.Semantics.resolved array

(** Matcher callbacks bound to a semantics state and the RISC
    grammar. *)
val callbacks :
  Gg_codegen.Semantics.t -> Grammar.t -> Desc.sval Matcher.callbacks
