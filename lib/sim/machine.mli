open Import

(** The machine core every simulated target shares.

    Executes parsed assembly over a flat byte-addressable memory with
    the same calling convention, arithmetic semantics and observable
    state as {!Gg_ir.Interp} — any target can sit at either end of the
    differential-testing harness.  Registers are 32 bits wide; doubles
    occupy register pairs rn/rn+1, as on the VAX.  [calls]/[call] push
    the argument count, return pc, fp, ap and r2..r11; [ret] restores
    them.

    What differs between instruction sets is an {!isa} value
    ({!Vax.isa}, {!Risc.isa}): instruction execution, which results set
    the condition flags, effective addresses, extra builtins, the
    branch table and the cycle model.  The one builtin every target
    has is [print] (one long or double argument, appended to the
    output).  Every fault of a malformed program raises {!Sim_error}. *)

type outcome = Gg_ir.Simout.t = {
  return_value : Interp.value;
  globals : (string * Interp.value) list;
  output : string list;
  insns_executed : int;
  cycles : int;  (** accumulated cost under the isa's cycle model *)
}

exception Sim_error of string

type state

(** Branch conditions over the N, Z and C flags; the [u] forms are
    unsigned. *)
type cond = Always | Eq | Ne | Lt | Le | Gt | Ge | Ltu | Leu | Gtu | Geu

type isa = {
  syntax : Asmparse.syntax;
  cycles_of : Insn.t -> int;
  branches : (string * cond) list;  (** branch mnemonic -> condition *)
  builtins : (string * (state -> unit)) list;
      (** called routines the machine implements itself; arguments are
          on the stack, which the core pops afterwards *)
  effective_addr : state -> Mode.mem -> int -> int;
      (** address of a memory operand accessed at a width *)
  result_flags : state -> int64 -> unit;
      (** what writing an integer result (sign-extended from its width)
          does to the flags *)
  result_flags_float : state -> float -> unit;
  exec : state -> string -> Mode.t list -> unit;
      (** executes one non-control instruction *)
}

(** Parse and run assembly text: load, push [args], call [entry] and
    run it to its [ret].  [global_types] gives the element type of each
    global so scalar finals can be reported (pass the IR program's
    globals); [ret_type] tells how to read r0 at the end. *)
val run_text :
  isa ->
  ?max_steps:int ->
  ?global_types:(string * Dtype.t * int) list ->
  ?ret_type:Dtype.t ->
  string ->
  entry:string ->
  Interp.value list ->
  outcome

(** {1 For instruction-set modules} *)

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
val reg_get : state -> int -> int64
val reg_set : state -> int -> int64 -> unit
val set_flags : state -> n:bool -> z:bool -> c:bool -> unit
val load_bytes : state -> int -> int -> int64
val push_long : state -> int64 -> unit
val sign_extend : int -> int64 -> int64

(** [base + sym + disp] of a memory operand. *)
val displacement_addr : state -> Mode.mem -> int

(** Operand access at a width of 1, 2, 4 or 8 bytes. *)

val read_int : state -> Mode.t -> int -> int64
val write_int : state -> Mode.t -> int -> int64 -> unit

(** The datatype named by mnemonic character [i]. *)
val type_at : string -> int -> Dtype.t

(** [unary st ty f_int f_float src dst]: dst := f src, at type [ty]. *)
val unary :
  state -> Dtype.t -> (int64 -> int64) -> (float -> float) ->
  Mode.t -> Mode.t -> unit

(** [binary st ty f_int f_float a b dst]: dst := f a b, reading [b]
    first (which orders auto-increment side effects). *)
val binary :
  state -> Dtype.t -> (int64 -> int64 -> int64) ->
  (float -> float -> float) -> Mode.t -> Mode.t -> Mode.t -> unit

(** [convert st from to src dst]: the cvt family. *)
val convert : state -> Dtype.t -> Dtype.t -> Mode.t -> Mode.t -> unit

(** [compare st ty x y] sets the flags from x - y, reading [y] first. *)
val compare : state -> Dtype.t -> Mode.t -> Mode.t -> unit

(** [ash v c]: [v] shifted left by [c], right for a negative [c]. *)
val ash : int64 -> int64 -> int64

(** 32-bit unsigned quotient or remainder; division by zero raises. *)
val unsigned_divide : rem:bool -> int64 -> int64 -> int64
