(** Reference interpreter for IR programs.

    The interpreter executes the same forests that the code generators
    consume, over a flat byte-addressable memory with a VAX-like calling
    convention (arguments via [ap], locals below [fp]).  It is the
    oracle for differential testing: a compiled program run under
    {!Gg_sim}, for either target, must leave the same observable state (return value,
    global variables, [print] output) as the interpreter.

    Arithmetic semantics (shared with the simulator): all integer
    operations are performed at the operator's data type with two's
    complement wrapping; division truncates toward zero; the remainder
    takes the sign of the dividend; shift counts are taken modulo 64;
    division or modulus by zero raises {!Runtime_error}. *)

type value = VInt of int64 | VFloat of float

exception Runtime_error of string

type outcome = {
  return_value : value;
  globals : (string * value) list;
      (** final values of scalar globals, in declaration order *)
  output : string list;  (** lines produced by the [print] builtin *)
  steps : int;  (** statements executed, for loop-bound diagnostics *)
}

(** [run ?max_steps program ~entry args] interprets [program] starting
    at function [entry].  Raises {!Runtime_error} on dynamic errors
    (missing function/label, division by zero, step budget exceeded,
    out-of-range memory access). *)
val run :
  ?max_steps:int -> Tree.program -> entry:string -> value list -> outcome

(** [eval_tree t] evaluates a closed expression tree (no memory
    references other than temporaries, no calls); handy for unit tests
    of pure arithmetic. *)
val eval_tree : Tree.t -> value

val pp_value : value Fmt.t
val value_equal : value -> value -> bool
