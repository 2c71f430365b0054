(* Structured trace spans, exported as Chrome trace_event JSON.

   Every domain records into its own {!Profile} shard without
   synchronisation: a span begin/end is a timestamp read plus one list
   cons in the calling domain's event list.  The export merges the
   shards; each shard keeps its domain's id as the Chrome thread id, so
   a [-j N] batch compile renders as N parallel tracks in
   chrome://tracing / Perfetto. *)

type phase = Profile.phase = B | E

type event = Profile.event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts : float;
  ev_track : int;
  ev_args : (string * string) list;
}

let enabled = ref false

(* wall-clock relative to a process-start epoch; the phase aggregates
   are differences of these same readings *)
let epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

(* the epoch as absolute unix microseconds: exported in the trace
   document so two processes' traces (a client and the daemon that
   served it) can be stitched onto one real-time axis by trace-merge *)
let epoch_us () = epoch *. 1e6

let push (s : Profile.shard) ph ~cat ~args name ts =
  s.events <-
    {
      ev_name = name;
      ev_cat = cat;
      ev_ph = ph;
      ev_ts = ts;
      ev_track = s.track;
      ev_args = args;
    }
    :: s.events

let span ?(cat = "") ?(args = []) name f =
  if not !enabled then f ()
  else begin
    let s = Profile.shard () in
    push s B ~cat ~args name (now_us ());
    Fun.protect ~finally:(fun () -> push s E ~cat ~args name (now_us ())) f
  end

(* the leaf phases: one clock read per edge feeds both the phase
   aggregate ({!Profile.enabled}) and the span's events ({!enabled}),
   so the two cannot disagree *)
let phase name f =
  let timed = !Profile.enabled and traced = !enabled in
  if not (timed || traced) then f ()
  else begin
    let s = Profile.shard () in
    let t0 = now_us () in
    if traced then push s B ~cat:"phase" ~args:[] name t0;
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_us () in
        if traced then push s E ~cat:"phase" ~args:[] name t1;
        if timed then Profile.add_phase s name ((t1 -. t0) /. 1e6))
      f
  end

let events () =
  (* shards come most-recent-first and never share a track (domain
     ids are unique for the process lifetime), so concatenating them
     keeps every track's events in record order once each is reversed *)
  List.concat_map
    (fun (s : Profile.shard) -> List.rev s.events)
    (List.rev (Profile.shards ()))

let reset () =
  List.iter (fun (s : Profile.shard) -> s.events <- []) (Profile.shards ())

(* -- Chrome trace_event JSON -------------------------------------------- *)

let args_json args =
  if args = [] then ""
  else
    Fmt.str ",\"args\":{%s}"
      (String.concat ","
         (List.map
            (fun (k, v) ->
              Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v))
            args))

let export () =
  let evs = events () in
  let b = Buffer.create 4096 in
  (* epochUs keys the whole document to absolute time; Chrome/Perfetto
     ignore unknown top-level members, trace-merge relies on it *)
  Buffer.add_string b (Printf.sprintf "{\"epochUs\":%.3f," (epoch_us ()));
  Buffer.add_string b "\"traceEvents\":[";
  let tracks = Hashtbl.create 8 in
  List.iter (fun e -> Hashtbl.replace tracks e.ev_track ()) evs;
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b s
  in
  (* metadata rows naming each domain's track *)
  Hashtbl.iter
    (fun track () ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\
            \"args\":{\"name\":\"domain %d\"}}"
           track track))
    tracks;
  List.iter
    (fun e ->
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\
            \"pid\":1,\"tid\":%d%s}"
           (Json.escape e.ev_name)
           (Json.escape (if e.ev_cat = "" then "span" else e.ev_cat))
           (match e.ev_ph with B -> "B" | E -> "E")
           e.ev_ts e.ev_track (args_json e.ev_args)))
    evs;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let write path = Json.write_atomic path (export ())
