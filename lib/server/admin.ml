open Import

(* The ops plane: a second Unix-domain socket, deliberately not the
   compile protocol.  One connection is one line-oriented command and
   one reply — text in, JSON (or Prometheus text) out — so an operator
   can drive it with nothing but a shell and a socket tool, and a
   wedged compile plane never blocks a health probe (the admin thread
   shares nothing with the worker pool but the metrics shards). *)

let max_command = 256

type t = {
  socket_path : string;
  sock : Unix.file_descr;
  handle : string -> string;
  shutdown : bool Atomic.t;
  mutable thread : Thread.t option;
  mutable stopped : bool;
}

(* read up to the first newline (the command), bounded; admin peers are
   local tools, but a misbehaving one must not hold the thread *)
let read_command fd =
  let b = Buffer.create 32 in
  let buf = Bytes.create 64 in
  let rec go () =
    if Buffer.length b > max_command then Buffer.contents b
    else
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> Buffer.contents b
      | n -> (
        match Bytes.index_opt (Bytes.sub buf 0 n) '\n' with
        | Some i ->
          Buffer.add_subbytes b buf 0 i;
          Buffer.contents b
        | None ->
          Buffer.add_subbytes b buf 0 n;
          go ())
      | exception Unix.Unix_error _ -> Buffer.contents b
  in
  String.trim (go ())

let write_all fd s =
  let n = String.length s in
  let pos = ref 0 in
  try
    while !pos < n do
      pos := !pos + Unix.write_substring fd s !pos (n - !pos)
    done
  with Unix.Unix_error _ -> ()

let serve_one handle fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2. with Unix.Unix_error _ -> ());
  let cmd = read_command fd in
  write_all fd (handle cmd);
  try Unix.close fd with Unix.Unix_error _ -> ()

let loop t =
  while not (Atomic.get t.shutdown) do
    match Unix.select [ t.sock ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept ~cloexec:true t.sock with
      | exception Unix.Unix_error _ -> ()
      | fd, _ -> serve_one t.handle fd)
  done

let start ~socket_path ~handle =
  if Sys.file_exists socket_path then (
    let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect probe (Unix.ADDR_UNIX socket_path) with
    | () ->
      Unix.close probe;
      failwith (Fmt.str "an admin endpoint is already serving %s" socket_path)
    | exception Unix.Unix_error _ -> Unix.close probe);
    try Sys.remove socket_path with Sys_error _ -> ());
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind sock (Unix.ADDR_UNIX socket_path);
     Unix.listen sock 16
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      socket_path;
      sock;
      handle;
      shutdown = Atomic.make false;
      thread = None;
      stopped = false;
    }
  in
  t.thread <- Some (Thread.create loop t);
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.shutdown true;
    Option.iter Thread.join t.thread;
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    try Sys.remove t.socket_path with Sys_error _ -> ()
  end

(* -- the standard command set --------------------------------------------- *)

let default_handler ~server ~drain cmd =
  match cmd with
  | "stats" ->
    (* the same document the shutdown sidecar writes — one source of
       truth, so a live snapshot and the post-run file agree exactly *)
    Metrics.to_json ()
  | "health" ->
    Printf.sprintf "{\"status\":\"ok\",\"served\":%d,\"queue_depth\":%d}\n"
      (Server.served server)
      (Server.queue_depth server)
  | "metrics" -> Metrics.to_prometheus ()
  | "flight" -> Flight.to_json (Server.recorder server)
  | "drain" ->
    drain ();
    "{\"status\":\"draining\"}\n"
  | other ->
    Printf.sprintf
      "{\"error\":\"unknown command %s\",\"commands\":[\"stats\",\"health\",\
       \"metrics\",\"flight\",\"drain\"]}\n"
      (Gg_profile.Json.escape other)
