open Import

(** The [ggccd] serving loop.

    One long-lived process loads the packed tables once (through the
    {!Gg_tablegen.Cache}) and amortises that fixed cost over every
    subsequent compile — the serving analogue of the paper's table-reuse
    argument.  Architecture:

    - [workers] workers serve connections: worker 0 is a systhread of
      the domain that calls {!start}, and only the other [workers - 1]
      run on {!Parallel.spawn_pool} domains, so [workers = 1] spawns no
      domain at all.  Every domain must stop for every minor
      collection, so a domain that only waits is not free;
    - an idle worker first pops the bounded {!Squeue}, and when it is
      empty waits in [select] on the non-blocking listening socket,
      then accepts and serves the connection itself (a worker that
      loses the race for a connection sees [EAGAIN] and waits again).
      It reads the request frame, compiles behind an exception barrier
      (a crashing compile becomes an [Error] response, the daemon keeps
      serving), honours the request's deadline with a [Timeout]
      response, writes the reply and closes the connection;
    - an accept thread does admission control, and runs only while no
      worker is idle: it queues each connection it accepts (stamped
      with its accept time) for the next worker to come free, and
      answers a full queue immediately with {!Protocol.Retry_after} —
      backpressure instead of unbounded buffering.  It shares the
      calling domain with worker 0, so while every worker is busy a
      connection waits for worker 0's next blocking call or the
      runtime's 50 ms thread tick before it is queued or shed;
    - {!stop} drains gracefully: accepting stops, everything already
      queued is still served, the workers are joined, the socket file
      removed.

    The calling domain must not compile while the server runs: worker
    0 compiles there, and the colorer's per-domain scratch
    ([Liveness.Scratch]) serves one compile per domain at a time.

    Telemetry rides the existing instruments: [server.requests_total],
    [server.responses_*], [server.queue_depth] and friends in
    {!Metrics} named counters, the {!Metrics.queue_wait_us} /
    {!Metrics.request_latency_us} histograms, and one {!Trace} span per
    request on the recording worker's domain track.  The v4 request id is
    threaded through everything a request touches — the span's [args],
    every {!Slog} record, the {!Flight} recorder entry — so one id
    greps across logs, traces and post-mortem dumps. *)

type config = {
  socket_path : string;
  workers : int;
      (** workers serving connections: one on the calling domain, the
          rest on a domain each *)
  queue_capacity : int;  (** accepted-but-unserved connections *)
  read_timeout_s : float;
      (** [SO_RCVTIMEO] on accepted connections, so a client that
          connects and never sends cannot hold a worker forever *)
  retry_after_ms : int;  (** suggested backoff in rejections *)
  logger : Slog.t;  (** structured log sink; {!Slog.null} by default *)
  slow_ms : int;
      (** requests slower than this log [request.slow] at [warn]
          instead of [request.done] at [info]; [0] disables *)
  flight_capacity : int;  (** flight-recorder ring size *)
  crash_dump : string option;
      (** where the flight ring is dumped when the compile barrier
          catches a crash ([Internal] response); [None] disables *)
}

val default_config : socket_path:string -> config

type t

(** Binds the socket, starts worker 0 and the accept thread as
    threads of the calling domain and the other workers on a domain
    each, and returns immediately.  A live daemon already owning the socket is a
    [Failure]; a stale socket file is replaced.  [tables] resolves each
    request's target to its parse tables — the caller decides cache vs
    build (and typically backs it with per-target lazies so a target
    is only loaded when first requested); it must be safe to call from
    any worker, on any domain. *)
val start :
  config:config -> tables:(Backend.target -> Driver.tables) -> unit -> t

(** Graceful drain: stop accepting, serve the backlog, join the
    workers and the accept thread, then close the listening socket (no
    thread is left waiting on it) and remove its file.  Afterwards
    {!Parallel.live_domains} reads 0.  Idempotent. *)
val stop : t -> unit

(** Requests answered so far (any response kind). *)
val served : t -> int

(** Connections the accept thread queued that no worker has picked up
    yet (live admin [stats]). *)
val queue_depth : t -> int

(** The daemon's flight recorder: the last [flight_capacity] request
    summaries, dumpable at any moment (SIGQUIT, admin [flight]). *)
val recorder : t -> Flight.t

(** The compile path behind the barrier, exposed for the differential
    tests: exactly what a worker runs for a decoded request, including
    the error mapping — never raises. *)
val compile_request : Driver.tables -> Protocol.request -> Protocol.response
