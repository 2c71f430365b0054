(* ggccd — the persistent compile server.

   Loads the packed tables once (through the on-disk cache) and serves
   compile requests over a Unix-domain socket until SIGTERM/SIGINT,
   then drains gracefully.  `ggcc --server SOCK` is the matching
   client; `ggcc --server SOCK --spawn` starts this daemon on demand.

   The ops plane rides alongside: structured JSON logs with the v4
   request id on every line, an admin socket answering stats/health/
   metrics/flight/drain, periodic atomic metrics snapshots so SIGKILL
   loses at most one interval, and a flight recorder dumped on SIGQUIT
   or when the compile barrier catches a crash. *)

open Cmdliner
module Driver = Gg_codegen.Driver
module Backend = Gg_codegen.Backend
module Targets = Gg_targets.Targets
module Server = Gg_server.Server
module Admin = Gg_server.Admin
module Slog = Gg_server.Slog
module Protocol = Gg_server.Protocol
module Profile = Gg_profile.Profile
module Metrics = Gg_profile.Metrics
module Trace = Gg_profile.Trace

let shutdown = Atomic.make false

(* SIGQUIT asks for a state dump, not an exit: the handler only flips
   the flag, the main loop does the I/O *)
let dump_requested = Atomic.make false

let install_signals () =
  let handle = Sys.Signal_handle (fun _ -> Atomic.set shutdown true) in
  List.iter
    (fun s -> try Sys.set_signal s handle with Invalid_argument _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  try
    Sys.set_signal Sys.sigquit
      (Sys.Signal_handle (fun _ -> Atomic.set dump_requested true))
  with Invalid_argument _ -> ()

let run socket admin_socket workers queue_capacity read_timeout log_path
    log_level slow_ms flight_size flight_dump snapshot_interval no_cache
    specialize metrics_out trace_out =
  let level =
    match Slog.level_of_string log_level with
    | Some l -> l
    | None ->
      Fmt.epr "error: --log-level must be debug, info or warn (got %s)@."
        log_level;
      exit 1
  in
  (* the daemon's output sinks must fail as one-line errors up front,
     not as Sys_error backtraces mid-serve *)
  let log_sink =
    match log_path with
    | None -> None
    | Some path -> (
      match open_out path with
      | oc -> Some (path, oc)
      | exception Sys_error m ->
        Fmt.epr "error: cannot open log file %s: %s@." path m;
        exit 1)
  in
  let check_sink what = function
    | None -> ()
    | Some path -> (
      (* probe writability now; the real write happens at shutdown *)
      match open_out_gen [ Open_append; Open_creat ] 0o644 path with
      | oc -> close_out oc
      | exception Sys_error m ->
        Fmt.epr "error: cannot write %s %s: %s@." what path m;
        exit 1)
  in
  check_sink "metrics file" metrics_out;
  check_sink "trace file" trace_out;
  let flight_dump =
    match flight_dump with Some p -> p | None -> socket ^ ".flight.json"
  in
  check_sink "flight dump" (Some flight_dump);
  let logger =
    match log_sink with
    | Some (_, oc) -> Slog.to_channel ~level oc
    | None -> Slog.to_channel ~level stderr
  in
  install_signals ();
  (* the serving instruments are always armed: a daemon exists to be
     observed, and the hot-loop cost is the gated one-load-and-branch *)
  Profile.enabled := true;
  Metrics.enabled := true;
  if trace_out <> None then Trace.enabled := true;
  (* Per-target tables, resolved on first request for that target and
     kept warm for the daemon's lifetime.  The mutex makes resolution
     safe from any worker domain (and keeps a shared lazy from being
     forced concurrently); the common case after the first request per
     target is one lock/lookup/unlock. *)
  let table_mutex = Mutex.create () in
  let table_memo : (Backend.target, Driver.tables) Hashtbl.t =
    Hashtbl.create 4
  in
  (* a file profile is target-specific (production ids are per-grammar),
     but loading it is cheap and ids a grammar lacks are ignored by the
     packer; --specialize auto collects a per-target profile from
     the built-in corpus at resolution time *)
  let file_profile =
    match specialize with
    | Some spec when spec <> "auto" -> (
      match Gg_tablegen.Heat.load spec with
      | p -> Some p
      | exception (Failure m | Sys_error m) ->
        Fmt.epr "error: cannot load profile %s: %s@." spec m;
        exit 1)
    | _ -> None
  in
  let tables target =
    Mutex.protect table_mutex (fun () ->
        match Hashtbl.find_opt table_memo target with
        | Some t -> t
        | None ->
          let t0 = Unix.gettimeofday () in
          let t =
            match specialize with
            | Some _ ->
              let profile =
                match file_profile with
                | Some p -> p
                | None -> Targets.heat_profile target
              in
              Targets.specialized_tables ~use_cache:(not no_cache) ~profile
                target
            | None ->
              if no_cache then Targets.default_tables target
              else
                Targets.cached_tables target
                  Driver.default_options.Driver.grammar
          in
          Slog.info logger ~event:"tables.ready"
            [
              Slog.str "target" (Targets.name target);
              Slog.str "specialized"
                (if specialize <> None then "true" else "false");
              Slog.int "load_us"
                (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
            ];
          Hashtbl.add table_memo target t;
          t)
  in
  (* warm the default target before accepting, like the old
     single-table daemon did *)
  ignore (tables Backend.Vax : Driver.tables);
  let config =
    let d = Server.default_config ~socket_path:socket in
    {
      d with
      Server.workers = (match workers with Some w -> w | None -> d.Server.workers);
      queue_capacity;
      read_timeout_s = float_of_int read_timeout /. 1e3;
      logger;
      slow_ms;
      flight_capacity = flight_size;
      crash_dump = Some flight_dump;
    }
  in
  let server =
    try Server.start ~config ~tables ()
    with Failure m | Sys_error m ->
      Fmt.epr "error: %s@." m;
      exit 1
  in
  let admin =
    match admin_socket with
    | None -> None
    | Some path -> (
      let handle =
        Admin.default_handler ~server ~drain:(fun () ->
            Atomic.set shutdown true)
      in
      match Admin.start ~socket_path:path ~handle with
      | admin ->
        Slog.info logger ~event:"admin.serving" [ Slog.str "socket" path ];
        Some admin
      | exception Failure m ->
        Server.stop server;
        Fmt.epr "error: %s@." m;
        exit 1)
  in
  let dump_flight () =
    match Gg_server.Flight.dump (Server.recorder server) flight_dump with
    | () ->
      Slog.info logger ~event:"flight.dumped" [ Slog.str "path" flight_dump ]
    | exception (Sys_error m | Failure m) ->
      Slog.warn logger ~event:"flight.dump_failed"
        [ Slog.str "path" flight_dump; Slog.str "error" m ]
  in
  let snapshot () =
    Option.iter
      (fun path ->
        try Metrics.write_json_atomic path
        with Sys_error m ->
          Slog.warn logger ~event:"snapshot.failed"
            [ Slog.str "path" path; Slog.str "error" m ])
      metrics_out
  in
  (* Crash-surviving telemetry: snapshot the metrics every interval
     with a tmp+rename write, so a SIGKILL or power cut loses at most
     one interval of counters instead of the whole serve session. *)
  let last_snapshot = ref (Unix.gettimeofday ()) in
  while not (Atomic.get shutdown) do
    (try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if Atomic.get dump_requested then begin
      Atomic.set dump_requested false;
      dump_flight ();
      snapshot ()
    end;
    if
      snapshot_interval > 0
      && (Unix.gettimeofday () -. !last_snapshot) *. 1e3
         >= float_of_int snapshot_interval
    then begin
      last_snapshot := Unix.gettimeofday ();
      snapshot ()
    end
  done;
  Slog.info logger ~event:"shutdown" [];
  Option.iter Admin.stop admin;
  Server.stop server;
  Option.iter (fun path -> Metrics.write_json_atomic path) metrics_out;
  Option.iter Trace.write trace_out;
  Option.iter (fun (_, oc) -> close_out oc) log_sink;
  exit 0

let socket_arg =
  Arg.(
    value
    & opt string (Gg_server.Protocol.default_socket ())
    & info [ "socket" ] ~docv:"SOCK"
        ~doc:
          "Unix-domain socket to serve on.  Default: \\$GGCG_SOCKET, else \
           a per-user socket in the temp directory.")

let admin_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "admin-socket" ] ~docv:"SOCK"
        ~doc:
          "Serve the ops plane on $(docv): line commands stats, health, \
           metrics (Prometheus text), flight and drain, one reply per \
           connection.")

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker domains draining the request queue (default: the \
           recommended domain count minus the accept thread, and at \
           least 2 so blocked requests never serialise the queue).")

let queue_arg =
  Arg.(
    value & opt int 64
    & info [ "queue-capacity" ] ~docv:"N"
        ~doc:
          "Accepted-but-unserved connection bound; beyond it new requests \
           are rejected with a retry-after response.")

let read_timeout_arg =
  Arg.(
    value & opt int 10_000
    & info [ "read-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Give up on a client that connects but never sends a full request \
           after $(docv) milliseconds.")

let log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Append one structured JSON log record per line to $(docv) \
           (default: stderr).")

let log_level_arg =
  Arg.(
    value & opt string "info"
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Log records below $(docv) (debug, info or warn) are dropped.")

let slow_ms_arg =
  Arg.(
    value & opt int 500
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Requests slower than $(docv) milliseconds end-to-end log \
           request.slow at warn level; 0 disables.")

let flight_size_arg =
  Arg.(
    value & opt int 64
    & info [ "flight-size" ] ~docv:"N"
        ~doc:"Flight-recorder capacity: the last $(docv) request summaries.")

let flight_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dump" ] ~docv:"FILE"
        ~doc:
          "Where SIGQUIT and the crash barrier dump the flight recorder \
           (default: the compile socket path plus .flight.json).")

let snapshot_interval_arg =
  Arg.(
    value & opt int 5_000
    & info [ "snapshot-interval-ms" ] ~docv:"MS"
        ~doc:
          "Rewrite --metrics-out atomically every $(docv) milliseconds \
           while serving, so a crash loses at most one interval of \
           telemetry; 0 writes only at shutdown.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Build the parse tables in-process; never touch the disk cache.")

let specialize_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "specialize" ] ~docv:"FILE|auto"
        ~doc:
          "Serve from profile-specialized parse tables: $(docv) is a heat \
           profile from $(b,mdgtool heat --json --out), or $(b,auto) to \
           collect one per target from the built-in corpus.  Output is \
           byte-identical to unspecialized serving; only matcher probe \
           locality changes.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the metric registry (request counters, queue-wait and \
           latency histograms) as JSON to $(docv) on shutdown and every \
           --snapshot-interval-ms while serving.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event timeline of the serve session to \
           $(docv) on shutdown — one track per worker domain, request \
           spans tagged with their request id.")

let () =
  let term =
    Term.(
      const run $ socket_arg $ admin_socket_arg $ workers_arg $ queue_arg
      $ read_timeout_arg $ log_arg $ log_level_arg $ slow_ms_arg
      $ flight_size_arg $ flight_dump_arg $ snapshot_interval_arg
      $ no_cache_arg $ specialize_arg $ metrics_out_arg $ trace_out_arg)
  in
  let info =
    Cmd.info "ggccd"
      ~doc:"Persistent mini-C compile server (the ggcc --server daemon)"
  in
  exit (Cmd.eval (Cmd.v info term))
