(** Named counters and fixed-bucket histograms.

    The {!Profile} counters answer "how much work, in total"; the
    histograms here answer "how is it distributed" — per-tree match
    time, reductions per tree, matcher stack high-water, instructions
    per function.  That distribution is the instrument Samuelsson-style
    table optimisation (PAPERS.md) needs before table usage data can
    drive table layout.

    Observations are recorded into the calling domain's
    {!Profile.shard} (a bounded linear scan plus four increments; no
    allocation, no synchronisation) and merged on read, so totals are
    exact under [ggcc -j N] once the worker domains have joined.  The
    standard histograms are registered at module initialisation; hot
    paths gate their observations on {!enabled}.

    Invariants the test suite locks in: the bucket counts of a
    histogram sum to its {!count}, [count tree_reductions] equals the
    {!Profile} [matcher_runs] counter and [sum tree_reductions] equals
    its [reduces] counter over the same instrumented run. *)

type histogram

(** Gates the hot-path observation sites (not {!observe} itself); off
    by default, set by [--metrics]/[--metrics-out]. *)
val enabled : bool ref

(** {1 The standard instruments} *)

(** Wall microseconds spent matching one tree. *)
val tree_match_us : histogram

(** Reductions performed while matching one tree. *)
val tree_reductions : histogram

(** Deepest parse-stack occupancy while matching one tree. *)
val stack_high_water : histogram

(** Instructions emitted per compiled function (before rendering). *)
val insns_per_func : histogram

(** Values spilled to frame temporaries per compiled function, under
    either register allocator. *)
val spills_per_func : histogram

(** Microseconds a compile-server request spent queued between accept
    and a worker picking it up ({!Gg_server.Server}). *)
val queue_wait_us : histogram

(** End-to-end microseconds from accepting a compile-server connection
    to its response being written. *)
val request_latency_us : histogram

(** {1 Recording} *)

(** [observe h v] adds observation [v] to [h] in the calling domain's
    shard.  Values beyond the last bound land in the overflow bucket. *)
val observe : histogram -> int -> unit

(** [incr ?by name] bumps the named counter in the calling domain's
    shard. *)
val incr : ?by:int -> string -> unit

(** {1 Merged reads} *)

val count : histogram -> int
val sum : histogram -> int
val max_value : histogram -> int

(** [(upper bound, count)] per bucket, in bound order; [None] is the
    overflow bucket.  Counts sum to {!count}. *)
val buckets : histogram -> (int option * int) list

val name : histogram -> string
val unit_of : histogram -> string
val all : unit -> histogram list

(** = {!Profile.named_counters}. *)
val named_counters : unit -> (string * int) list

(** Shifts per reduce over the merged {!Profile} counters; [0.] when
    nothing has been matched (never a division by zero). *)
val shift_reduce_ratio : unit -> float

(** [quantile h q] estimates the [q]-quantile (in [h]'s unit) from the
    merged bucket counts by linear interpolation inside the bucket the
    [q]-th observation falls in; the overflow bucket's upper edge is
    the observed max.  [0.] on an empty histogram.  Deterministic in
    the bucket counts, so a live snapshot and a shutdown sidecar taken
    over the same observations agree exactly. *)
val quantile : histogram -> float -> float

(** {1 Live snapshots — the admin plane's read API} *)

type histo_view = {
  hv_name : string;
  hv_unit : string;
  hv_count : int;
  hv_sum : int;
  hv_max : int;
  hv_buckets : (int option * int) list;
  hv_p50 : float;
  hv_p99 : float;
}

type view = {
  v_counters : (string * int) list;
      (** {!Profile.counter_list} *)
  v_histograms : histo_view list;
}

(** One coherent view of every counter and histogram, safe to take from
    any thread while worker domains keep observing (concurrent reads
    see momentarily stale integers, nothing worse); exact once the
    writing domains have joined.  This is what [ggccd]'s admin [stats]
    endpoint serves without restarting the daemon. *)
val snapshot : unit -> view

(** Zero every histogram and named counter in every shard; the
    {!Profile} counters, coverage and phase aggregates and the trace
    events are left alone.  Call only while no other domain is
    recording. *)
val reset : unit -> unit

(** {1 Exposition} *)

(** Text dump: counters, the shift/reduce ratio, and one bar-rendered
    table per histogram ([ggcc --metrics]). *)
val report : Format.formatter -> unit -> unit

(** Record the process's minor and major collection counts
    ([Gc.quick_stat]) for {!to_json}'s [gc] object.  Counts are taken
    here, at fixed points (the end of every served request, every
    {!write_json_atomic}), not by {!to_json} itself, so two documents
    rendered with no sample between them are identical. *)
val sample_gc : unit -> unit

(** The machine-readable sidecar ([ggcc --metrics-out]): counters,
    phase timings and histograms as one JSON document, consumed by the
    bench harness, plus a [gc] object holding the
    [minor_collections] and [major_collections] of the last
    {!sample_gc}. *)
val to_json : unit -> string

(** {!sample_gc}, then {!to_json} written atomically
    ({!Json.write_atomic}): a reader (or a daemon killed mid-write)
    never sees a torn snapshot.  [ggccd]'s periodic snapshot loop and
    every [--metrics-out] use it. *)
val write_json_atomic : string -> unit

(** Prometheus text exposition (version 0.0.4) of the same view
    {!to_json} serves: counters as [counter], histograms as native
    Prometheus histograms with cumulative [le] buckets, [_sum] and
    [_count].  Metric names are prefixed [ggcg_] and sanitised. *)
val to_prometheus : unit -> string
