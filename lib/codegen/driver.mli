open Import

(** The complete Graham-Glanville code generator: transform, match,
    select, allocate, print (paper Fig. 2).

    The table-driven backend replaces PCC's second pass: it consumes the
    same IR forests as {!Gg_pcc} and produces VAX assembly text plus the
    structured instruction lists the benchmarks analyse. *)

(** Which register allocator assigns the bank: [Stack] is the paper's
    5.3.3 stack-discipline manager; [Color] matches and emits into
    virtual registers, then runs Chaitin/Briggs graph coloring
    ({!Color}) over the stream before rendering. *)
type regalloc = Stack | Color

val regalloc_name : regalloc -> string
val regalloc_of_string : string -> regalloc option

type options = {
  grammar : Grammar_def.options;
  transform : Transform.options;
  idioms : bool;  (** run the idiom recogniser (section 5.3.2) *)
  peephole : bool;
      (** run the peephole pass over the emitted code (the section 6.1
          alternative organisation); off by default, as in the paper *)
  regalloc : regalloc;  (** default [Stack] *)
  heat : (int * int) list;
      (** production-id -> firing-count table ({!Color.load_heat}, from
          [mdgtool heat --json]) weighting the colorer's spill costs;
          ignored under [Stack] *)
}

val default_options : options

(** First virtual-register number in color mode. *)
val vreg_base : int

(** The driver's table handle: the one comb-packed table layout
    ({!Gg_tablegen.Packed}) with the grammar it was built from and the
    {!Backend.t} whose grammar that is, so every downstream consumer
    (driver, oracle, server) matches, renders, prices and simulates
    with the right target. *)
type tables = {
  grammar : Grammar.t;
  packed : Packed.t;
  backend : Backend.t;
}

val backend : tables -> Backend.t
val grammar : tables -> Grammar.t

(** Build packed tables in-process for the given options and backend
    (default VAX); building is expensive, so build once and reuse
    (callers share {!default_tables}). *)
val build_tables : ?backend:Backend.t -> Grammar_def.options -> tables

(** Like {!build_tables} but through the on-disk cache
    ({!Gg_tablegen.Cache}, keyed by target and grammar digest): a warm
    cache loads the replicated tables in milliseconds instead of
    reconstructing them. *)
val cached_tables :
  ?dir:string -> ?backend:Backend.t -> Grammar_def.options -> tables

(** The default VAX tables. *)
val default_tables : tables Lazy.t

type compiled_func = {
  cf_name : string;
  cf_insns : Insn.t list;  (** body, without prologue/epilogue *)
  cf_frame_size : int;
  cf_prov : (int * int list * string) list;
      (** per-instruction provenance, parallel to [cf_insns]: the
          source line current at emission, the grammar production
          ids reduced since the previous emission, and a marker
          ([""] normally, ["spill"]/["reload"] on register-allocator
          traffic, which carries the provenance of the value being
          moved).  Empty unless
          {!Gg_profile.Profile.provenance_enabled} was set when the
          function was compiled, or when the peephole pass rewrote the
          instruction list. *)
}

type output = {
  assembly : string;  (** complete assembler file *)
  funcs : compiled_func list;
  program : Tree.program;
}

(** Phase 1 of one function exactly as {!compile_func} runs it, timed
    under ["phase1.transform"]: the transformed function, whose [Stree]
    trees are the ones the matcher sees, and the register variables
    withheld from the bank.  The spill limit follows the backend's bank
    less those registers. *)
val transform_func :
  ?options:options -> tables -> Tree.func -> Transform.result * int list

(** Compile one function (already transformed trees are not required:
    the driver runs Phase 1 itself).  Phase 1 and the match phase are
    timed under ["phase1.transform"] / ["phase2.match"] when
    {!Gg_profile.Profile.enabled}. *)
val compile_func : ?options:options -> tables -> Tree.func -> compiled_func

(** What {!Color.run} receives for one function under [Color]: the
    virtual-register stream after matching, its provenance, the
    virtual-register summary, the bank left after register variables
    are withheld, and the frame the spill slots extend. *)
type color_input = {
  ci_backend : Backend.t;
  ci_bank : int list;
  ci_frame : Frame.t;  (** mutable: {!run_color} allocates spill slots *)
  ci_vinfo : Regmgr.vreg_summary;
  ci_heat : (int * int) list;
  ci_prov : (int * int list * string) list;
  ci_insns : Insn.t list;
}

(** Phases 1 and 2 of {!compile_func} under [Color] ([options.regalloc]
    is ignored), stopping before the colorer: for tests and
    measurements of {!Color.run} on real functions. *)
val color_input : ?options:options -> tables -> Tree.func -> color_input

(** The colorer step of {!compile_func}: {!Color.run} on one input. *)
val run_color :
  color_input -> Insn.t list * (int * int list * string) list * Color.stats

(** Compile a whole program.  [jobs] > 1 distributes the functions over
    the persistent {!Parallel} pool (clamped to the core count; see
    {!Parallel.map}); output order is the program's function order
    regardless of scheduling, so the assembly is byte-identical to a
    [jobs:1] run.  [oversubscribe] forwards to {!Parallel.map} — a
    test/benchmark knob forcing real multi-domain batches even on a
    single-core host. *)
val compile_program :
  ?options:options ->
  ?tables:tables ->
  ?jobs:int ->
  ?oversubscribe:bool ->
  Tree.program ->
  output

(** Render an output with per-instruction provenance comments
    ([# L<line> p<id>,... ; <production note>]) — the [--explain]
    assembly listing.  Functions compiled without provenance render as
    plain assembly. *)
val render_explained : tables -> output -> string

(** Compile a single statement tree against the default tables and
    return the instructions — convenient for tests and examples. *)
val compile_tree : ?options:options -> ?tables:tables -> Tree.t -> Insn.t list

(** Like {!compile_tree} but also returns the matcher trace (for the
    paper's Appendix example). *)
val compile_tree_traced :
  ?options:options ->
  ?tables:tables ->
  Tree.t ->
  Insn.t list * Matcher.step list

(** Total static cycles / line counts over an output (code-quality
    metrics for the benchmarks), under the backend's cycle model
    (default VAX). *)
val total_cycles : ?backend:Backend.t -> output -> int

val total_lines : output -> int
