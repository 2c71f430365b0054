open Import

(** On-disk cache of packed parse tables, keyed by grammar digest.

    The paper's table construction was the development bottleneck (the
    2 h → 10 min story, sections 7 and 9); even our optimised
    constructor is the dominant start-up cost of every [ggcc] run.  The
    cache makes construction a once-per-grammar event: files are named
    [tables-<target>-<digest>.tbl] under the cache directory, so an
    edited grammar automatically misses, two targets can never collide
    on disk even if their grammars happened to digest identically, and
    a stale file can never be picked up.  {!Packed.load} additionally
    re-verifies the embedded digest.

    The directory is [$GGCG_CACHE_DIR], else [$XDG_CACHE_HOME/ggcg],
    else [~/.cache/ggcg] (a temp-dir fallback covers HOME-less
    environments).  All writes are atomic (write + rename) and all
    failures degrade to rebuilding in memory — the cache can never make
    a compile fail. *)

val default_dir : unit -> string

(** The cache file for this grammar and target (default ["vax"]; the
    file need not exist).  Tables laid out for a [profile] are named
    [tables-<target>-<grammar digest>-p<profile digest>.tbl]: the
    profile digest joins the key, so one grammar keeps one entry per
    workload profile and an edited profile automatically misses. *)
val path :
  ?dir:string -> ?target:string -> ?profile:Heat.t -> Grammar.t -> string

(** One cache entry, parsed from its filename (no file is opened except
    to size it). *)
type entry = {
  e_file : string;
  e_target : string;
  e_grammar_digest : string;
  e_profile_digest : string option;  (** [Some _] on profiled entries *)
  e_bytes : int;
}

(** Every [tables-*.tbl] in the cache directory, profile-free and
    profiled, sorted by filename. *)
val list : ?dir:string -> unit -> entry list

(** [load g] — the cached tables (laid out for [profile], if given),
    or [None] if absent, stale, unreadable or in an older format.
    Timed under ["tables.load"] when profiling. *)
val load :
  ?dir:string -> ?target:string -> ?profile:Heat.t -> Grammar.t ->
  Packed.t option

(** Best-effort atomic store under the key of the tables' own profile
    digest; returns [false] if the directory is not writable. *)
val store : ?dir:string -> ?target:string -> Grammar.t -> Packed.t -> bool

(** Build and pack tables without touching the disk (timed under
    ["tables.build"]).  With a [profile] the packing (timed under
    ["tables.specialize"]) is {e verified cell-for-cell against the
    dense tables} before it is returned; [Failure] on a mismatch, so a
    layout bug can never select wrong instructions. *)
val build : ?profile:Heat.t -> Grammar.t -> Packed.t

(** Evict cache entries that can never be loaded again: every baseline
    [tables-*.tbl] that is not one of the [live] (target, grammar)
    pairs' entries (the grammar changed underneath them, or the file
    predates target-keyed names), every profiled entry whose grammar
    digest is stale {e or} — when [live_profiles] is given — whose
    profile digest is not in it (omitting [live_profiles] keeps any
    profiled entry of a live grammar), and every [tables-*.tmp]
    orphaned by an interrupted store.  Returns the removed files with
    their sizes in bytes, sorted; live entries are never touched and
    unremovable files are skipped silently. *)
val clear_stale :
  ?dir:string ->
  ?live_profiles:string list ->
  (string * Grammar.t) list ->
  (string * int) list

(** The production path: cached tables if present, else build and
    store (a stale or older-format file is overwritten).  Updates the
    {!Gg_profile.Profile.counters} hit/miss counts. *)
val load_or_build :
  ?dir:string -> ?target:string -> ?profile:Heat.t -> Grammar.t -> Packed.t
