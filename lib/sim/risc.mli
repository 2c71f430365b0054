(** The RISC: a strict load/store machine.  Every operand position
    checks its operand kind (register, immediate or memory) and raises
    {!Machine.Sim_error} on a violation; the parser rejects
    autoincrement, autodecrement and indexed operands.  Only [cmp*]
    sets the condition flags; branches spell [b*], calls [call $n,f],
    and costs come from {!Gg_risc.Insn_table.cycles}.  Unsigned divide
    and remainder are instructions, so there are no support-routine
    builtins. *)

val isa : Machine.isa
