open Import

(** The cross-backend differential oracle.

    Every program is executed several ways — the reference interpreter
    on the IR, the table-driven backends' output under their target
    simulators (VAX and/or RISC, stack and/or color allocation), and the
    PCC-style baseline under the VAX simulator — and all observables
    (return value, final scalar globals, print output) must agree.
    This is the paper's correctness claim (section 8) as a standing
    instrument rather than a one-off validation run, extended across
    targets: a divergence between two backends is a bug in one of the
    machine descriptions. *)

(** Why a backend failed the oracle. *)
type reason =
  | Diverged of string
      (** observable state differs; the payload names the first
          differing observable (return value, a global by name, or the
          print output) *)
  | Crash of string
      (** the backend, the assembler parser or the simulator raised *)

type failure = { backend : string; reason : reason }

(** The reference interpreter itself failed: the program (not a
    backend) is at fault — a generator or shrinker bug. *)
exception Invalid of string

(** [compare_observations ~reference actual] — a single robust
    comparison of all observables that reports {e which} one differs
    (globals are matched by name, so a length mismatch names the first
    missing global instead of failing opaquely). *)
val compare_observations :
  reference:Interp.outcome -> Simout.t -> (unit, string) result

(** A named gg backend configuration: target tables plus an optional
    per-engine compile-options override.  Mixing stack- and
    color-allocating engines makes the oracle differential over the
    register allocator; mixing targets makes it differential over the
    machine descriptions. *)
type engine = {
  e_name : string;
  e_tables : Driver.tables;
  e_options : Driver.options option;
      (** when set, replaces {!check}'s [~options] for this engine *)
}

type engines = engine list

val engine : ?options:Driver.options -> string -> Driver.tables -> engine

(** The default VAX grammar. *)
val default_grammar : unit -> Grammar.t

(** A target's default tables, named [<target>] so a failure pins down
    the machine description. *)
val engine_for : Backend.target -> engine

(** The same tables allocating with [--regalloc color], named
    [<target>-color]. *)
val color_engine_for : Backend.target -> engine

(** [check ~engines prog] runs the interpreter once, then each gg
    engine and the PCC baseline, comparing observables.  Returns the
    reference outcome, or the first failure.  Raises {!Invalid} if the
    interpreter itself rejects the program.  [jobs] is forwarded to
    {!Driver.compile_program} — a fuzz campaign under [--jobs N] also
    exercises the parallel batch path. *)
val check :
  ?options:Driver.options ->
  ?pcc:bool ->
  ?jobs:int ->
  ?max_steps:int ->
  engines:engines ->
  Tree.program ->
  (Interp.outcome, failure) result

val pp_failure : failure Fmt.t
