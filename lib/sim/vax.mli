(** The VAX subset: two- and three-operand instructions over any
    addressing mode (autoincrement, autodecrement and scaled indexing
    included), condition flags set by every operation, [j*] branches,
    [calls $n,f], the {!Gg_ir.Insn.cycles} cost model, and the builtins
    [__udivl]/[__umodl] — the unsigned division routines the idiom
    recogniser calls, which modify no register but r0 (paper section
    5.3.2). *)

val isa : Machine.isa
