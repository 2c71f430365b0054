(** The target registry: one place that knows every backend and its
    simulator.

    The compiler proper ({!Gg_codegen.Driver}) is target-independent
    and works off a {!Gg_codegen.Backend.t} record; this module maps
    target names to those records, owns the per-target default tables,
    enumerates the cache entries a grammar keeps live, and dispatches
    assembly to the matching simulator.  Everything above the driver —
    [ggcc], [ggccd], [ggfuzz], [mdgtool], the benchmarks — selects a
    target through here. *)

module Backend = Gg_codegen.Backend

val backend_of : Backend.target -> Backend.t
val of_string : string -> Backend.target option
val name : Backend.target -> string
val all : Backend.target list

(** The default tables for a target, built once on first use and
    shared. *)
val default_tables : Backend.target -> Gg_codegen.Driver.tables

val build_tables :
  Backend.target -> Gg_vax.Grammar_def.options -> Gg_codegen.Driver.tables

(** Through the on-disk cache ({!Gg_tablegen.Cache}). *)
val cached_tables :
  ?dir:string ->
  Backend.target ->
  Gg_vax.Grammar_def.options ->
  Gg_codegen.Driver.tables

(** The auto heat profile for a target: production firing counts from
    compiling the fixed mini-C corpus with the target's own tables.
    Production ids are grammar-specific, so a profile collected for one
    target does not transfer to another. *)
val heat_profile : Backend.target -> Gg_tablegen.Heat.t

(** Tables whose packed layout is laid out around [profile]
    ({!Gg_tablegen.Packed.pack}): cache-first through the
    (target, grammar digest, profile digest) entry unless [use_cache]
    is false, else built from scratch, {e verified cell-for-cell
    against the dense tables}, and stored.  Raises [Failure] if
    verification fails ({!Gg_tablegen.Cache.build}) — a layout bug can
    never select wrong instructions. *)
val specialized_tables :
  ?dir:string ->
  ?use_cache:bool ->
  profile:Gg_tablegen.Heat.t ->
  Backend.target ->
  Gg_codegen.Driver.tables

(** The (target name, grammar) pairs that are live for the given
    grammar options — the keep-list for {!Gg_tablegen.Cache.clear_stale}
    so evicting one target's stale entries never drops the other's. *)
val live_cache_entries :
  Gg_vax.Grammar_def.options -> (string * Gg_grammar.Grammar.t) list

(** Target-specific simulator exceptions, normalised so callers need
    not know which simulator ran. *)
exception Sim_error of string

exception Parse_error of int * string

(** Run assembly text under the target's simulator.  Raises
    {!Sim_error} / {!Parse_error} (the per-simulator exceptions are
    re-raised as these). *)
val run_text :
  target:Backend.target ->
  ?max_steps:int ->
  ?global_types:(string * Gg_ir.Dtype.t * int) list ->
  ?ret_type:Gg_ir.Dtype.t ->
  string ->
  entry:string ->
  Gg_ir.Interp.value list ->
  Gg_ir.Simout.t
