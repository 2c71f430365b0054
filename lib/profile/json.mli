(** A minimal JSON reader/writer for the telemetry sidecars.

    The ops tooling ([mdgtool top], [mdgtool trace-merge]) and the
    test suite consume JSON this repository itself produces — admin
    [stats] snapshots, Chrome traces, flight-recorder dumps — so this
    is a small, complete, dependency-free parser and printer, not a
    streaming library.  Numbers are [float]s (Chrome trace timestamps
    are fractional microseconds); object member order is preserved. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(** Raises {!Parse_error} on any malformed input, including trailing
    bytes after the document. *)
val parse : string -> t

val parse_file : string -> t

(** Compact single-line rendering; integral floats print without a
    decimal point so round-tripped counters stay readable. *)
val to_string : t -> string

(** Escape a string for inclusion in a JSON string literal. *)
val escape : string -> string

(** [write_atomic path doc] writes [doc] to a [.tmp] sibling of [path]
    and renames it into place, so a reader (or a process killed
    mid-write) never sees a torn document.  Every telemetry document —
    metrics sidecar, trace, flight dump — is written this way. *)
val write_atomic : string -> string -> unit

(** {1 Accessors} — all total, [None] on shape mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option
val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
