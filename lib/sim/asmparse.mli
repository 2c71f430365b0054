open Import

(** Parser for the assembly the code generators emit, for every target.

    The parser inverts {!Gg_ir.Insn.assembly} and the addressing-mode
    format table, recovering structured instructions so the simulator
    and the cost model operate on the same representation the compiler
    produced.  Local labels ([L7]) are scoped to their function; global
    symbols come from [.globl] and [.comm].  What differs between
    instruction sets is a {!syntax} value. *)

type item =
  | Globl of string
  | Comm of string * int  (** name, size in bytes *)
  | Deflabel of string  (** function entry or other global label *)
  | Locallabel of Label.t
  | Instruction of Insn.t

type program = {
  items : item list;
  text : string;  (** original source, for error reporting *)
}

(** The spelling an instruction set gives its calls, branches and
    operands. *)
type syntax = {
  call : string;  (** the call mnemonic, e.g. [calls] in [calls $n,f] *)
  branch : char;  (** the first letter of every branch mnemonic *)
  check_operand : string -> Mode.t -> unit;
      (** rejects (with [Failure]) a parsed operand the machine lacks *)
}

exception Parse_error of int * string  (** line number, message *)

val parse : syntax -> string -> program

(** Parse a single operand (exposed for tests), e.g. ["-4(fp)[r6]"].
    Raises [Failure] on a malformed or rejected operand. *)
val parse_operand : syntax -> string -> Mode.t
