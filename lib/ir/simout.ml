(** The observable outcome of running a compiled program under a target
    simulator.

    The simulator reports exactly this record under every instruction
    set, and the reference interpreter's {!Interp.outcome} carries
    the same observables — return value, final scalar globals, print
    output — so the differential oracle can compare any backend against
    the interpreter and against any other backend without conversion. *)

type t = {
  return_value : Interp.value;
  globals : (string * Interp.value) list;
  output : string list;
  insns_executed : int;
  cycles : int;  (** accumulated cost under the target's cycle model *)
}
