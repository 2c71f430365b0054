(** Domain-based worker pool for batch compilation.

    The paper's headline defect is second-pass throughput (section 8:
    the table-driven pass ran ~1.45x slower than PCC's); beyond the
    matcher's own hot loop, the remaining lever is compiling the
    functions of a program across cores.  The packed tables are
    immutable and shared read-only; all per-function state
    ({!Semantics}, {!Regmgr}, {!Frame}) lives inside the worker; and
    {!Gg_profile.Profile} shards its counters per domain, so [--profile]
    and fuzz coverage stay exact under parallelism.

    {!map} runs its batches on one process-wide {e persistent} pool:
    worker domains are spawned on first use and parked on a condition
    variable between batches, because [Domain.spawn] costs milliseconds
    — comparable to compiling the whole corpus — and spawning per batch
    made [-j 2] measurably slower than [-j 1]. *)

(** [Domain.recommended_domain_count ()] — the useful upper bound for
    [jobs]. *)
val available : unit -> int

(** [map ~jobs f xs] applies [f] to every element of [xs] on up to
    [jobs] domains (the calling domain is one of them; an effective
    count of 1 degenerates to [List.map]).  Results preserve input
    order regardless of scheduling, so batch output is deterministic.
    If any application raises, the exception of the {e earliest}
    failing element is re-raised after the batch has completed.

    The effective domain count is clamped to [available ()] — extra
    domains on a smaller machine only add stop-the-world GC
    synchronisation — so [-j 8] on one core runs sequentially rather
    than 7x slower.  [~oversubscribe:true] lifts the clamp (to the
    pool's parked-worker cap) so tests and benchmarks can exercise real
    multi-domain batches on any box; it is never the production path.

    Batches run one at a time on the shared pool; a [map] issued while
    another is in flight (including a nested [map] from inside [f])
    runs inline and sequentially, with identical observable
    behaviour. *)
val map : ?oversubscribe:bool -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** Joins every parked map-pool worker (waiting first for an in-flight
    batch).  The pool respawns lazily on the next [map]; registered
    with [at_exit], so explicit calls are only needed by tests. *)
val shutdown : unit -> unit

(** {1 Persistent pools}

    Long-lived worker domains for serving workloads
    ({!Gg_server.Server}): where {!map}'s pool parks between batches,
    [spawn_pool] members run one body until it returns — the body loops
    over a shared work source (a queue) and decides for itself when to
    stop. *)

type pool

(** [spawn_pool ~domains body] starts [max 1 domains] domains, each
    running [body i] (with [i] the worker index) to completion. *)
val spawn_pool : domains:int -> (int -> unit) -> pool

(** Joins every member; if any body raised, re-raises the first such
    exception (in worker order) after all have been joined. *)
val join_pool : pool -> unit

(** Domains currently executing work: {!spawn_pool} members from the
    moment [spawn_pool] returns until their body does, map-pool workers only while participating in a batch
    (parked workers are not counted).  Zero once every pool is joined
    and no batch is in flight — the invariant the shutdown tests
    assert. *)
val live_domains : unit -> int
