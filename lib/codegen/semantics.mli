open Import

(** The semantic actions of the code generator: what happens at each
    reduction of the pattern matcher (paper sections 5.2-5.4).

    Reductions with [Mode] actions condense the matched phrase into an
    operand descriptor; [Emit] actions select an instruction from the
    instruction table, run the idiom recogniser (binding idioms, range
    idioms, pseudo-instruction expansion — section 5.3.2), call the
    register manager, and append assembly to the output buffer. *)

type t

(** [create ~idioms ~reserved frame] — [idioms:false] disables the
    idiom recogniser (the paper notes it is optional: correct but worse
    code results); [reserved] registers hold register variables and are
    withheld from the register manager; [allocatable] is the target's
    register bank and [move] its operand mover (both default to the
    VAX, see {!Regmgr.create}).  [explain] overrides
    [Profile.provenance_enabled] (the colorer's heat weighting needs
    provenance without the user asking for --explain); [vreg_base]
    puts the register manager in virtual mode for the coloring
    allocator. *)
val create :
  ?idioms:bool ->
  ?explain:bool ->
  ?reserved:int list ->
  ?allocatable:int list ->
  ?move:(Dtype.t -> src:Mode.t -> dst:Mode.t -> Insn.t list) ->
  ?vreg_base:int ->
  Frame.t ->
  t

(** {2 Semantic actions resolved once per production}

    A production's action names its semantic routine by a string — a
    mode builder (["disp"]) or an instruction-table key (["add.l"]).
    Each target resolves every production of a grammar once, on first
    use, into an array indexed by production id and kept with the
    grammar ({!Gg_grammar.Grammar.derived}), so one resolution serves
    every domain and a reduction does no string work. *)

(** The mode builders, by name; [Unknown_mode] for any other name,
    which fails at reduction time. *)
type mode =
  | Imm
  | Fimm
  | Name
  | Temp
  | Dreg
  | Autoinc
  | Autodec
  | Indir
  | Deferred
  | Absolute
  | Disp
  | Symdisp
  | Index
  | Dispindex
  | Symindex
  | Unknown_mode

(** [Pass] for chain and start productions, whose value is their one
    argument; ['e] is the target's resolved Emit action. *)
type 'e action = Pass | Mode of mode | Emit of 'e

type 'e resolved = {
  prod : Grammar.production;
  action : 'e action;
  base : string;
      (** the mode name, or the Emit key before its last ['.']
          (["add"] for ["add.l"]); [""] for [Pass] *)
  sfx : Dtype.t option;
      (** the type the Emit key's suffix names: [Long] for ["add.l"],
          the result type [Long] for the conversion ["cvt.bl"] *)
  lhs : Dtype.t option;  (** the lhs suffix's type: [Long] for [reg.l] *)
}

(** [resolve ~emit g] resolves every production of [g]; [emit ~key
    ~base ~suffix] resolves one Emit key (["cvt.bl"], ["cvt"],
    [Some "bl"]). *)
val resolve :
  emit:(key:string -> base:string -> suffix:string option -> 'e) ->
  Grammar.t ->
  'e resolved array

(** The type of the Emit key's suffix; fails with ["emit key K: bad type
    suffix"] (or ["missing type suffix"]) when it names none. *)
val ty_of_suffix : 'e resolved -> Dtype.t

(** The production's Emit key or mode name. *)
val key : 'e resolved -> string

(** {3 The VAX resolution} *)

(** How a binary operator computes: a cluster of the instruction table,
    or a pseudo-instruction expansion (section 5.3.2). *)
type pseudo = P_and | P_mod | P_udiv | P_umod | P_lsh | P_rsh | P_unknown of string

type binop_impl = Cluster of Insn_table.cluster | Pseudo of pseudo

(** The Emit dispatcher's cases, by key base; [Class] is the
    over-factored operator class with its cluster per operator, [Other]
    every binary operator (and any unknown base). *)
type emit_kind =
  | Bridge_ixmul
  | Bridge_dxmul
  | Bridge_symmul
  | Cmpbr
  | Tstbr
  | Tstbr_reg
  | Ccbr
  | Push
  | Mova
  | Mov
  | Mov_r
  | Cvt
  | Unary
  | Class of (Op.binop * binop_impl) list
  | Other

type vax_emit = {
  kind : emit_kind;
  cluster : Insn_table.cluster option;  (** [Insn_table.find key] *)
  impl : binop_impl option;  (** the cluster as a binary operator *)
}

(** The VAX resolution of a grammar, computed once per grammar. *)
val actions : Grammar.t -> vax_emit resolved array

(** The mode builder, shared by both targets: a RISC grammar uses a
    subset of the VAX modes. *)
val build_mode :
  t -> Grammar.t -> 'e resolved -> mode -> Desc.sval array -> Desc.sval

(** Matcher callbacks bound to this state and grammar, with the VAX
    mode builder and Emit dispatcher. *)
val callbacks : t -> Grammar.t -> Desc.sval Matcher.callbacks

(** The target-independent callback skeleton over a grammar's resolved
    actions: shift wraps the terminal node, reduce passes [Pass]
    productions' first argument through and hands [Mode]/[Emit] to the
    supplied dispatchers (with provenance bookkeeping), chain rules
    only note their id for provenance, and choose ranks equal-length
    candidates mode < chain < emit < start, then grammar order.  A
    second backend supplies its own dispatchers and resolution and
    inherits everything else. *)
val make_callbacks :
  t ->
  mode:(t -> Grammar.t -> 'e resolved -> mode -> Desc.sval array -> Desc.sval) ->
  emit:(t -> Grammar.t -> 'e resolved -> 'e -> Desc.sval array -> Desc.sval) ->
  Grammar.t ->
  'e resolved array ->
  Desc.sval Matcher.callbacks

(** Instructions emitted so far, in order. *)
val output : t -> Insn.t list

(** Append an instruction directly (used by the driver for labels,
    jumps, calls and returns). *)
val emit : t -> Insn.t -> unit

val regmgr : t -> Regmgr.t
val frame : t -> Frame.t

(** Whether the idiom recogniser was enabled at [create]. *)
val idioms_enabled : t -> bool

(** {2 Helpers shared by backend semantic dispatchers} *)

(** Materialise a descriptor whose operand carries autoincrement side
    effects into a register so it can be referenced more than once
    (paper section 6.1); any other descriptor is returned unchanged. *)
val stable : t -> Desc.t -> Desc.t

(** The immediate value of a descriptor's operand, if it is one. *)
val immediate_value : Desc.t -> int64 option

(** Destructure the [Cbranch] node of a branch production. *)
val branch_of_node : Tree.t -> Op.relop * Dtype.signedness * Dtype.t * Label.t

(** Destructure the [Binop] node of an operator production. *)
val binop_of_node : Tree.t -> Op.binop

(** {2 Instruction provenance}

    When [Profile.provenance_enabled] was true at [create] time, every
    emitted instruction is paired with the source line current at the
    time of emission and the grammar production ids reduced since the
    previous emission.  Outside of explain mode these are no-ops and
    the emit path allocates nothing extra. *)

(** Set the current source line (from a [Tree.Sline] marker). *)
val set_line : t -> int -> unit

(** Mark the end of a statement tree: instructions emitted after this
    point and before the next reduction carry no production ids. *)
val end_tree : t -> unit

(** [(line, production ids, marker)] for each instruction of [output],
    in order.  The marker is [""] for ordinary instructions, ["spill"]
    or ["reload"] for register-manager traffic (which carries the
    provenance of the value being moved, not of the current
    reduction).  Empty unless provenance was enabled at [create]. *)
val provenance : t -> (int * int list * string) list
