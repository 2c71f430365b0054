(** The telemetry store, and the always-available counters on it.

    The paper's Fig. 2 observation — "roughly one half of code
    generation time is spent pattern matching" — motivated much of its
    engineering; this module turns that one-off measurement into
    standing instrumentation.  Hot-path event counters (shifts, reduces,
    semantic tie choices, table-cache hits, cold probes) are plain
    mutable ints and always on; the phase aggregates are gated on
    {!enabled} so the production path pays nothing when profiling is
    off (the [ggcc --profile] flag turns it on).

    Every domain writes to its own {!shard} — counters, coverage, phase
    aggregates, trace events ({!Trace}), histograms and named counters
    ({!Metrics}) — without synchronisation, so the matcher hot loop is
    as cheap under [ggcc -j N] as single-threaded.  All reads merge the
    shards, which is exact once the worker domains have been joined
    (the {!Gg_codegen.Parallel} pool joins its workers before
    returning).  [--profile], [--trace-out], [--metrics-out], the admin
    [stats]/[metrics] endpoints and [mdgtool heat] are views over this
    one store, so they cannot disagree.

    Only {e leaf} phases are timed (front end, table load/build,
    transform, match, peephole), so the per-phase shares printed by
    {!report} sum to the whole. *)

type counters = {
  mutable shifts : int;
  mutable reduces : int;
  mutable semantic_choices : int;  (** ties resolved by [choose] *)
  mutable matcher_runs : int;  (** trees matched *)
  mutable rejects : int;  (** syntactic blocks raised *)
  mutable cache_hits : int;  (** packed tables loaded from disk *)
  mutable cache_misses : int;  (** packed tables rebuilt *)
  mutable cold_probes : int;  (** cold-state table probes *)
  mutable _pad0 : int;
      (** the [_pad*] fields only stretch the record past a cache line,
          so per-domain shards never false-share; ignore them *)
  mutable _pad1 : int;
  mutable _pad2 : int;
  mutable _pad3 : int;
  mutable _pad4 : int;
  mutable _pad5 : int;
  mutable _pad6 : int;
  mutable _pad7 : int;
}

(** The calling domain's own event counters.  Hot paths fetch this once
    and increment the record's fields directly; the fields hold this
    domain's share, not the global totals — read those via {!totals}. *)
val counters : unit -> counters

(** The event counters summed over every domain that has recorded any. *)
val totals : unit -> counters

(** Gates the phase aggregates (not the counters); off by default. *)
val enabled : bool ref

(** Gates instruction-provenance collection ([ggcc --explain]): when
    set, {!Gg_codegen.Semantics} attaches to every emitted instruction
    the production ids reduced since the previous one plus the current
    source line.  Read once per [Semantics.create], so toggle it before
    compiling.  Off by default. *)
val provenance_enabled : bool ref

(** {1 Production coverage}

    When {!coverage_enabled} is set, the matcher records every grammar
    production it reduces by, keyed by production id.  This is the
    instrument behind the fuzzer's grammar-coverage report and
    [mdgtool heat] (which table entries actually fire, after
    Samuelsson's example-based table measurement); it is off by default
    so the production compile path pays one load and branch per
    reduction. *)

val coverage_enabled : bool ref

(** Called by the matcher on every reduction; no-op unless
    {!coverage_enabled}.  Records into the calling domain's shard. *)
val record_production : int -> unit

(** Accumulated [(production id, reduction count)] pairs over all
    domains, sorted by id.  Cumulative since the last
    {!reset_coverage}/{!reset}. *)
val production_counts : unit -> (int * int) list

val reset_coverage : unit -> unit

(** {1 Phases}

    Phases are timed by {!Trace.phase}, which adds each call's duration
    here when {!enabled} — the same clock reads its trace events carry. *)

(** Accumulated seconds for a phase over all domains (0 if never
    timed). *)
val seconds : string -> float

(** All timed phases as [(name, seconds, calls)], slowest first. *)
val phases : unit -> (string * float * int) list

(** Zero the counters, drop the phase aggregates and the coverage map,
    in every domain's shard; trace events, histograms and named
    counters are left alone.  Call only while no other domain is
    recording. *)
val reset : unit -> unit

(** {1 Counters} *)

(** The named counters ({!Metrics.incr}) summed over all domains,
    sorted by name. *)
val named_counters : unit -> (string * int) list

(** The counter list every exposition shares: the base {!counters} as
    [matcher.*] and [tables.*], then {!named_counters}. *)
val counter_list : unit -> (string * int) list

(** Render the phase aggregates, with shares of the timed total. *)
val pp_phases : Format.formatter -> unit -> unit

(** {!pp_phases}, then {!pp_counters}. *)
val report : Format.formatter -> unit -> unit

(** {!counter_list} as the [counters:] table both reports print. *)
val pp_counters : Format.formatter -> unit -> unit

(** {1 The shard}

    The per-domain store {!Trace} and {!Metrics} record into. *)

type phase = B | E

(** A trace edge; {!Trace.event} is this type. *)
type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts : float;  (** microseconds since the trace epoch *)
  ev_track : int;  (** id of the recording domain *)
  ev_args : (string * string) list;
}

type shard = {
  mutable c : counters;
  fired : (int, int) Hashtbl.t;  (** production id -> reductions *)
  timed : (string, float * int) Hashtbl.t;  (** phase -> seconds, calls *)
  track : int;  (** the owning domain's id *)
  mutable events : event list;  (** trace edges, newest first *)
  hist : int array;  (** every histogram's words, see {!reserve_words} *)
  named : (string, int) Hashtbl.t;  (** named counters *)
  named_lock : Mutex.t;
      (** serialises {!Metrics.incr}'s read-modify-write among the
          systhreads of the owning domain *)
}

(** The calling domain's shard, created and registered on first use. *)
val shard : unit -> shard

(** Every registered shard, most recent first. *)
val shards : unit -> shard list

(** [reserve_words n] claims [n] words of every shard's [hist] array and
    returns their offset.  Only at module initialisation: raises
    [Invalid_argument] once any shard exists. *)
val reserve_words : int -> int

(** [add_phase s name dt] adds one call of [dt] seconds to phase
    [name]'s aggregate in [s]. *)
val add_phase : shard -> string -> float -> unit
