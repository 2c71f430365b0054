(** Structured trace spans with Chrome [trace_event] JSON export.

    A span is a begin/end pair around a unit of compilation work — a
    file, a function, a leaf phase, one tree match.  Spans are recorded
    into the calling domain's {!Profile.shard} (one timestamp read and
    one cons per edge, no synchronisation), and {!export} merges the
    shards into Chrome
    trace JSON with the recording domain's id as the thread id — so a
    [ggcc -j N] compile is visually inspectable as N parallel tracks in
    chrome://tracing or Perfetto ([ggcc --trace-out trace.json]).

    Everything is gated on {!enabled}: with tracing off, {!span} is the
    plain application [f ()] and the hot paths pay one load and branch. *)

type phase = Profile.phase = B | E

type event = Profile.event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts : float;  (** microseconds since the trace epoch *)
  ev_track : int;  (** id of the recording domain *)
  ev_args : (string * string) list;
      (** span arguments, rendered as the Chrome event's [args] object
          — the request id a server span served, for example *)
}

(** Off by default; set by [--trace-out]. *)
val enabled : bool ref

(** [span ?cat ?args name f] runs [f] inside a [name] span when
    {!enabled}; transparent otherwise.  The end edge is recorded even
    if [f] raises; [args] ride on both edges. *)
val span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** [phase name f] — the standing leaf-phase instrumentation, the only
    phase timer.  One clock read per edge feeds both [name]'s phase
    aggregate ({!Profile.seconds}, when {!Profile.enabled}) and a
    [phase]-category span (when {!enabled}), so the trace durations and
    the [--profile] numbers are the same readings.  Transparent when
    both are off. *)
val phase : string -> (unit -> 'a) -> 'a

(** All recorded events, every track in record order (hence balanced
    and properly nested per track). *)
val events : unit -> event list

(** Microseconds since the trace epoch (the clock spans are stamped
    with). *)
val now_us : unit -> float

(** The trace epoch as absolute unix microseconds.  Exported in the
    trace document as [epochUs] so traces from different processes (a
    client and the daemon serving it) can be merged onto one absolute
    timeline. *)
val epoch_us : unit -> float

(** Drop all recorded events in every shard; counters, coverage, phase
    aggregates and histograms are left alone.  Call only while no other
    domain is recording. *)
val reset : unit -> unit

(** The Chrome [trace_event] JSON document for the recorded events. *)
val export : unit -> string

(** {!export}, written atomically ({!Json.write_atomic}). *)
val write : string -> unit
