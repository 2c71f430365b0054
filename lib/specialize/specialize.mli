open Import

(** Profile-guided table specialization.

    The comb-packed tables ({!Gg_tablegen.Packed}) lay rows out
    densest-first — an order fixed at construction, indifferent to what
    a workload actually fires.  A heat profile ({!Heat}, from [mdgtool
    heat --json]) says otherwise: a handful of productions dominate the
    reductions (the ROADMAP's "top 5 cover 50%" observation, after
    Samuelsson's example-based table optimisation).  This pass reshapes
    the packed representation around that observation:

    {ul
    {- {e Hot} states — the smallest heat-first prefix covering ~90% of
       the estimated probe heat — are comb-packed {e hottest-first}, so
       the workload's working set lands in the low, cache-resident
       slots, and the comb is padded past every hot row's reach so the
       per-token probe runs with no bounds check at all.}
    {- {e Cold} states leave the comb entirely: each keeps its exact
       exception list, binary-searched on probe.  Exactness is free and
       cold rows cost no comb slack.}}

    The result decodes {e cell-for-cell identically} to the dense
    table — same actions, same [Error] cells, same expected sets — by
    construction (it starts from {!Gg_tablegen.Packed.prepare}, the
    same cell preparation the baseline packs) and by proof ({!verify},
    run before any specialized table is cached or served).  Assembly
    out of a specialized compiler is byte-identical; only the probe
    locality changes. *)

type t

(** The default hot-partition coverage share (0.9). *)
val default_coverage : float

(** [build ~profile tables] — specialize the dense [tables] around the
    profile.  [coverage] is the share of estimated probe heat the hot
    partition must cover (default 0.9).  A profile with no usable heat
    (empty, or only foreign production ids) degenerates to every state
    hot — the baseline layout.  Exact for {e any} profile; the profile
    only steers layout. *)
val build : ?coverage:float -> profile:Heat.t -> Tables.t -> t

(** The states {!build} lays into the hot comb, in its packing order:
    hottest first, then densest, then by id. *)
val hot_states : ?coverage:float -> profile:Heat.t -> Tables.t -> int list

(** Same integer-code contract as {!Gg_tablegen.Packed.action_code}.
    When {!Gg_profile.Metrics.enabled}, each non-error probe bumps
    [matcher.probe_hits_hot] or [matcher.probe_hits_cold] — the
    measured locality split. *)
val action_code : t -> int -> int -> int

val action : t -> int -> int -> Tables.action
val tie_candidates : t -> int -> int array
val has_action : t -> int -> int -> bool
val expected : t -> int -> int list
val default_of : t -> int -> Tables.action option
val goto : t -> int -> int -> int

(** Is the state on the hot (padded comb) path? *)
val is_hot : t -> int -> bool

val grammar_digest : t -> string

(** The {!Heat.digest} of the profile this table was specialized for —
    the third cache-key component. *)
val profile_digest : t -> string

(** Cell-for-cell parity against the dense tables: every action cell
    (including [Error]), every goto, every expected set.  [Error _]
    names the first differing cell. *)
val verify : t -> Tables.t -> (unit, string) result

type stats = {
  states : int;
  hot_states : int;
  dense_cells : int;
  spec_cells : int;  (** slots used by all arrays + bitsets *)
  dense_bytes : int;  (** at one word per cell *)
  spec_bytes : int;
  ratio : float;  (** spec / dense *)
  hot_slots : int;  (** padded hot comb length *)
  cold_entries : int;  (** exact cold exception cells *)
}

val stats : t -> stats
val pp_stats : stats Fmt.t

(** The [ggcg-tables-v3] on-disk format: magic, then the marshalled
    tables embedding both the grammar digest and the profile digest. *)
val save : t -> string -> unit

(** Loads and validates: wrong magic, truncation, symbol-count or
    grammar-digest mismatch raise [Failure]; passing [profile]
    additionally rejects a file specialized for a different profile. *)
val load : ?profile:Heat.t -> Gg_grammar.Grammar.t -> string -> t

(** The specialized-table cache entry for (target, grammar, profile),
    named by {!Gg_tablegen.Cache.spec_path}.  [cache_load] returns
    [None] if absent, stale or unreadable; [cache_store] is atomic and
    returns [false] if the directory is not writable. *)
val cache_load :
  ?dir:string ->
  ?target:string ->
  profile:Heat.t ->
  Gg_grammar.Grammar.t ->
  t option

val cache_store : ?dir:string -> ?target:string -> Gg_grammar.Grammar.t -> t -> bool

(** A {!Gg_matcher.Matcher.engine} over the specialized table,
    behaviourally identical to the packed engine (same values, traces,
    rejects and expected sets). *)
val engine : grammar:Gg_grammar.Grammar.t -> t -> Gg_matcher.Matcher.engine
