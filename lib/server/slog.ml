(* Structured JSON-line logging for the daemon.

   One log record is one JSON object on one line — ts, level, event,
   then whatever fields the call site attaches (request_id, worker,
   latency_us, ...).  The sink is called under a mutex with the whole
   rendered line at once, so concurrent workers never interleave
   fragments and a tail -f reader always sees complete records. *)

module Json = Gg_profile.Json

type level = Debug | Info | Warn

let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | _ -> None

let rank = function Debug -> 0 | Info -> 1 | Warn -> 2

type t = { min_level : level; emit : string -> unit; lock : Mutex.t }

let null = { min_level = Warn; emit = (fun _ -> ()); lock = Mutex.create () }

let create ?(level = Info) emit = { min_level = level; emit; lock = Mutex.create () }

let to_channel ?level oc =
  (* flush per line: an operator tailing the log (or a crash) must not
     lose the record that explains what the daemon was doing *)
  create ?level (fun line ->
      output_string oc line;
      output_char oc '\n';
      flush oc)

(* ISO 8601 UTC with milliseconds; sortable and unambiguous *)
let timestamp () =
  let now = Unix.gettimeofday () in
  let tm = Unix.gmtime now in
  let ms = int_of_float ((now -. Float.of_int (int_of_float now)) *. 1000.) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec ms

type field = F_str of string * string | F_int of string * int

let str k v = F_str (k, v)
let int k v = F_int (k, v)

let render level ~event fields =
  let b = Buffer.create 160 in
  Buffer.add_string b
    (Printf.sprintf "{\"ts\":\"%s\",\"level\":\"%s\",\"event\":\"%s\""
       (timestamp ()) (level_name level)
       (Json.escape event));
  List.iter
    (fun f ->
      match f with
      | F_str (k, v) ->
        Buffer.add_string b
          (Printf.sprintf ",\"%s\":\"%s\"" (Json.escape k)
             (Json.escape v))
      | F_int (k, v) ->
        Buffer.add_string b
          (Printf.sprintf ",\"%s\":%d" (Json.escape k) v))
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

let log t level ~event fields =
  if rank level >= rank t.min_level then begin
    let line = render level ~event fields in
    Mutex.protect t.lock (fun () -> t.emit line)
  end

let debug t ~event fields = log t Debug ~event fields
let info t ~event fields = log t Info ~event fields
let warn t ~event fields = log t Warn ~event fields
