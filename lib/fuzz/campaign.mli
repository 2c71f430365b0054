open Import

(** Seed-range differential fuzz campaigns.

    For every seed in the range: generate a control-flow IR program,
    run it through the three-way oracle on each selected target and
    register allocator,
    and on failure greedily shrink it (re-checking the oracle at every
    step) and persist the reproducer to the divergence corpus. *)

(** Register allocator(s) under test: the stack discipline, the graph
    colorer, or both — [Rboth] adds a [<target>-color] engine next to
    the stack one, so the oracle is differential over the allocator. *)
type regalloc_sel = Rstack | Rcolor | Rboth

type config = {
  seed_lo : int;
  seed_hi : int;  (** inclusive *)
  gen : Treegen.config;
  regalloc : regalloc_sel;
  targets : Backend.target list;
      (** backends under test; the PCC baseline joins only when the
          VAX is among them (it emits VAX assembly) *)
  straight_line : bool;  (** use the straight-line generator instead *)
  corpus_dir : string;  (** where divergence dumps go *)
  max_shrink_checks : int;
  jobs : int;
      (** domains for each generated program's compiles
          ({!Oracle.check}'s [jobs]); shrinking stays single-threaded *)
  log : string Fmt.t option;  (** per-event progress lines, if wanted *)
}

val default_config : config

type divergence = {
  seed : int;
  failure : Oracle.failure;
  shrunk : Tree.program;  (** minimised reproducer *)
  shrunk_stmts : int;
  dump : string option;  (** path of the [.ir] dump, if persisted *)
}

type result = {
  programs : int;
  divergences : divergence list;
  fired : int list;  (** production ids fired across the campaign *)
  seconds : float;
}

(** Generate the program a campaign would run for one seed. *)
val program_of_seed : config -> int -> Tree.program

val run : config -> result

(** Re-run one persisted reproducer ([.ir] dump) through the oracle;
    [Ok] means it no longer diverges. *)
val replay :
  ?regalloc:regalloc_sel ->
  ?targets:Backend.target list ->
  string ->
  (Interp.outcome, Oracle.failure) Result.t
