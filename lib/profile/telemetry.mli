(** The command-line view of the telemetry store: arm the instruments a
    command asked for, run it, print its text reports and write its
    sidecar files.  [ggcc] and [ggfuzz] share this one wrapper. *)

(** The text reports: [profile] prints the phase timings, [metrics] the
    histograms, and either prints the shared [counters:] table, once. *)
val report : profile:bool -> metrics:bool -> Format.formatter -> unit -> unit

(** [with_telemetry ~profile ~metrics ?trace_out ?metrics_out ~explain f]
    turns on the phase timers when any report or sidecar is asked for,
    the trace with [trace_out], the histograms with [metrics] or
    [metrics_out] and provenance with [explain] (each from a reset
    state), then runs [f].  When [f] returns, {!report} goes to stderr.
    The sidecars are written whether [f] returns or raises: a failing
    run is the one whose telemetry is wanted on disk.  Both writes are
    atomic, so a crash mid-flush never leaves a torn document. *)
val with_telemetry :
  ?profile:bool ->
  ?metrics:bool ->
  ?trace_out:string ->
  ?metrics_out:string ->
  ?explain:bool ->
  (unit -> 'a) ->
  'a
