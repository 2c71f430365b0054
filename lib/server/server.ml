open Import

(* The serving loop: idle workers accept their own connections; while
   none is idle, the accept thread admits into a bounded queue or
   sheds.  See server.mli for the architecture; the invariant
   maintained throughout is that no request can kill the process —
   decode errors, compile crashes and deadline misses all become
   responses, and only the operator (signal / stop) ends the loop. *)

type config = {
  socket_path : string;
  workers : int;
  queue_capacity : int;
  read_timeout_s : float;
  retry_after_ms : int;
  logger : Slog.t;
  slow_ms : int;
  flight_capacity : int;
  crash_dump : string option;
}

let default_config ~socket_path =
  {
    socket_path;
    (* at least two workers even on a single-core host: requests block
       on socket reads, deliberate sleeps and deadlines, so a second
       worker overlaps that dead time instead of queueing behind it *)
    workers = max 2 (Parallel.available () - 1);
    queue_capacity = 64;
    read_timeout_s = 10.;
    retry_after_ms = 50;
    logger = Slog.null;
    slow_ms = 0;
    flight_capacity = 64;
    crash_dump = None;
  }

type t = {
  cfg : config;
  tables : Backend.target -> Driver.tables;
  sock : Unix.file_descr;
  queue : (Unix.file_descr * float) Squeue.t;
  shutdown : bool Atomic.t;
  n_served : int Atomic.t;
  recorder : Flight.t;
  idle : int Atomic.t;  (** workers waiting for a connection *)
  idle_m : Mutex.t;
  all_busy : Condition.t;  (** [idle] reached 0, or stop began *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
      (** a byte here wakes idle workers out of [select]: a connection
          was queued while one of them was idle, or stop began *)
  mutable pool : Parallel.pool option;
  mutable local : Thread.t option;  (** worker 0, on the calling domain *)
  mutable local_failure : (exn * Printexc.raw_backtrace) option;
  mutable acceptor : Thread.t option;
  mutable stopped : bool;
}

(* -- the compile barrier -------------------------------------------------- *)

(* Mirrors ggcc's direct compile path exactly (same options record,
   same render calls), so --server output is byte-identical; the error
   strings mirror ggcc's handle_errors formatting for the same reason. *)
let compile_request tables (req : Protocol.request) : Protocol.response =
  try
    if req.Protocol.fail_inject then
      failwith "fail_inject: injected failure inside codegen";
    let prog =
      Trace.phase "frontend" (fun () -> Sema.compile req.Protocol.source)
    in
    match req.Protocol.backend with
    | Protocol.Gg ->
      if req.Protocol.explain then Profile.provenance_enabled := true;
      let options =
        {
          Driver.default_options with
          Driver.idioms = req.Protocol.idioms;
          peephole = req.Protocol.peephole;
          regalloc = req.Protocol.regalloc;
        }
      in
      let out =
        Driver.compile_program ~options ~tables ~jobs:req.Protocol.jobs prog
      in
      Protocol.Asm
        (if req.Protocol.explain then Driver.render_explained tables out
         else out.Driver.assembly)
    | Protocol.Pcc ->
      Protocol.Asm
        (Pcc.compile_program ~peephole:req.Protocol.peephole prog).Pcc.assembly
  with
  | Lexer.Lex_error (line, m) ->
    Protocol.Error (Protocol.Lex, Fmt.str "lexical error, line %d: %s" line m)
  | Parser.Parse_error (line, m) ->
    Protocol.Error (Protocol.Parse, Fmt.str "syntax error, line %d: %s" line m)
  | Sema.Semantic_error m -> Protocol.Error (Protocol.Semantic, m)
  | Matcher.Reject e ->
    Protocol.Error (Protocol.Reject, Fmt.str "%a" Matcher.pp_error e)
  | Stack_overflow -> Protocol.Error (Protocol.Internal, "stack overflow")
  | e -> Protocol.Error (Protocol.Internal, Printexc.to_string e)

(* -- serving one connection ------------------------------------------------ *)

let ms_since t0 = (Unix.gettimeofday () -. t0) *. 1e3

let reply fd resp =
  (* the peer may be gone (it timed out client-side, or was rejected
     and closed); a failed reply must not take the worker down *)
  try Framing.write_frame fd (Protocol.encode_response resp)
  with Unix.Unix_error _ | Protocol.Protocol_error _ -> ()

let respond t fd resp =
  (match resp with
  | Protocol.Asm _ -> Metrics.incr "server.responses_ok"
  | Protocol.Error _ -> Metrics.incr "server.responses_error"
  | Protocol.Timeout -> Metrics.incr "server.timeouts_total"
  | Protocol.Retry_after _ -> ());
  (* before the reply: a client that reads stats next sees this one *)
  Metrics.sample_gc ();
  Atomic.incr t.n_served;
  reply fd resp

let outcome_name = function
  | Protocol.Asm _ -> "ok"
  | Protocol.Error (k, _) -> Fmt.str "%a" Protocol.pp_error_kind k
  | Protocol.Timeout -> "timeout"
  | Protocol.Retry_after _ -> "retry"

(* every completed request leaves a flight-recorder entry; an Internal
   error means the compile barrier caught a crash, so the ring — now
   holding the crashing request's id as its newest entry — is dumped
   for the post-mortem before the daemon carries on serving *)
let black_box t ~worker ~id ~bytes ~target ~regalloc ~outcome ~queue_wait_us
    ~latency_us =
  Flight.record t.recorder
    {
      Flight.fe_id = id;
      fe_bytes = bytes;
      fe_target = target;
      fe_regalloc = regalloc;
      fe_outcome = outcome;
      fe_queue_wait_us = queue_wait_us;
      fe_latency_us = latency_us;
      fe_worker = worker;
      fe_ts = Unix.gettimeofday ();
    }

let crash_dump t =
  match t.cfg.crash_dump with
  | None -> ()
  | Some path -> (
    try Flight.dump t.recorder path
    with Sys_error _ | Unix.Unix_error _ -> ())

let serve_connection t ~worker fd t_accept =
  let queue_wait_us = int_of_float (ms_since t_accept *. 1e3) in
  if !Metrics.enabled then Metrics.observe Metrics.queue_wait_us queue_wait_us;
  match Framing.read_frame fd with
  | None -> () (* connected and hung up without a request *)
  | exception Protocol.Protocol_error m ->
    respond t fd (Protocol.Error (Protocol.Bad_request, m))
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    respond t fd
      (Protocol.Error (Protocol.Bad_request, "timed out reading the request"))
  | exception Unix.Unix_error _ -> ()
  | Some payload -> (
    Metrics.incr "server.requests_total";
    match Protocol.decode_request payload with
    | exception Protocol.Protocol_error m ->
      Slog.warn t.cfg.logger ~event:"request.bad"
        [ Slog.int "worker" worker; Slog.str "error" m ];
      respond t fd (Protocol.Error (Protocol.Bad_request, m));
      black_box t ~worker ~id:"-" ~bytes:(String.length payload) ~target:"-"
        ~regalloc:"-" ~outcome:"bad_request" ~queue_wait_us
        ~latency_us:(int_of_float (ms_since t_accept *. 1e3))
    | req ->
      let id = req.Protocol.request_id in
      Slog.debug t.cfg.logger ~event:"request.start"
        [
          Slog.str "request_id" id;
          Slog.int "worker" worker;
          Slog.int "bytes" (String.length req.Protocol.source);
          Slog.int "queue_wait_us" queue_wait_us;
        ];
      ( Trace.span ~cat:"server" ~args:[ ("request_id", id) ] "request"
      @@ fun () ->
        if req.Protocol.sleep_ms > 0 then
          Unix.sleepf (float_of_int req.Protocol.sleep_ms /. 1e3);
        let past_deadline () =
          req.Protocol.deadline_ms > 0
          && ms_since t_accept > float_of_int req.Protocol.deadline_ms
        in
        let resp =
          if past_deadline () then Protocol.Timeout
          else
            (* resolving the target's tables may itself hit the disk
               cache; a failure there must answer, not kill the worker *)
            let r =
              match t.tables req.Protocol.target with
              | tables -> compile_request tables req
              | exception e ->
                Protocol.Error (Protocol.Internal, Printexc.to_string e)
            in
            if past_deadline () then Protocol.Timeout else r
        in
        let latency_us = int_of_float (ms_since t_accept *. 1e3) in
        if !Metrics.enabled then
          Metrics.observe Metrics.request_latency_us latency_us;
        respond t fd resp;
        let outcome = outcome_name resp in
        black_box t ~worker ~id ~bytes:(String.length req.Protocol.source)
          ~target:(Backend.target_name req.Protocol.target)
          ~regalloc:
            (match req.Protocol.regalloc with
            | Driver.Stack -> "stack"
            | Driver.Color -> "color")
          ~outcome ~queue_wait_us ~latency_us;
        (match resp with
        | Protocol.Error (Protocol.Internal, _) -> crash_dump t
        | _ -> ());
        let latency_ms = float_of_int latency_us /. 1e3 in
        let fields =
          [
            Slog.str "request_id" id;
            Slog.str "outcome" outcome;
            Slog.int "worker" worker;
            Slog.int "bytes" (String.length req.Protocol.source);
            Slog.int "queue_wait_us" queue_wait_us;
            Slog.int "latency_us" latency_us;
          ]
        in
        if t.cfg.slow_ms > 0 && latency_ms > float_of_int t.cfg.slow_ms then
          Slog.warn t.cfg.logger ~event:"request.slow"
            (fields @ [ Slog.int "slow_ms" t.cfg.slow_ms ])
        else Slog.info t.cfg.logger ~event:"request.done" fields ))

(* -- workers and the accept thread ----------------------------------------- *)

(* Every worker is idle from the moment it finishes a connection until
   it holds the next one.  An idle worker takes queued connections
   first, then waits in [select] on the non-blocking listening socket
   and serves what it accepts itself; the accept thread runs only while
   no worker is idle, so no connection is handed between threads while
   a worker is free to take it. *)

let wake t =
  try ignore (Unix.write_substring t.wake_w "!" 0 1 : int)
  with Unix.Unix_error _ -> () (* full: a wake-up is already pending *)

let drain_wake t buf =
  (* stop's byte must reach every idle worker: never drain once stop
     began, and put back a byte this drain may have taken from it *)
  if not (Atomic.get t.shutdown) then begin
    (try ignore (Unix.read t.wake_r buf 0 (Bytes.length buf) : int)
     with Unix.Unix_error _ -> ());
    if Atomic.get t.shutdown then wake t
  end

let busy t =
  if Atomic.fetch_and_add t.idle (-1) = 1 then
    Mutex.protect t.idle_m (fun () -> Condition.broadcast t.all_busy)

let accept t =
  match Unix.accept ~cloexec:true t.sock with
  | exception
      Unix.Unix_error
        ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
    ->
    None (* another worker, or the accept thread, took it *)
  | fd, _ ->
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.read_timeout_s
     with Unix.Unix_error _ -> ());
    Some (fd, Unix.gettimeofday ())

let worker t idx =
  let wake_buf = Bytes.create 64 in
  let serve (fd, t_accept) =
    (try serve_connection t ~worker:idx fd t_accept
     with e ->
       Slog.warn t.cfg.logger ~event:"worker.error"
         [ Slog.int "worker" idx; Slog.str "error" (Printexc.to_string e) ]);
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Atomic.incr t.idle
  in
  let dequeued c =
    Metrics.incr ~by:(-1) "server.queue_depth";
    busy t;
    serve c
  in
  (* stop began: the accept thread is gone or going, so serve what it
     queued until stop closes the queue *)
  let rec drain () =
    match Squeue.pop t.queue with
    | None -> ()
    | Some c ->
      dequeued c;
      drain ()
  in
  let rec loop () =
    match Squeue.try_pop t.queue with
    | Some c ->
      dequeued c;
      loop ()
    | None when Atomic.get t.shutdown -> drain ()
    | None ->
      (match Unix.select [ t.sock; t.wake_r ] [] [] 1.0 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
        if List.memq t.wake_r ready then drain_wake t wake_buf;
        if List.memq t.sock ready then
          Option.iter
            (fun c ->
              busy t;
              serve c)
            (accept t));
      loop ()
  in
  loop ()

(* Admission control only: the accept thread waits while any worker is
   idle, and otherwise queues each connection for the next worker to
   come free, or sheds it with Retry_after when the queue is full.  It
   is a systhread of the serving domain, so while worker 0 compiles it
   runs at worker 0's next blocking call or the runtime's 50 ms thread
   tick, whichever comes first: that is how long a shed waits. *)
let admit t (fd, t_accept) =
  if Squeue.try_push t.queue (fd, t_accept) then begin
    Metrics.incr "server.queue_depth";
    (* a worker that came free after its last look at the queue is in
       select; the byte sends it back to the queue *)
    if Atomic.get t.idle > 0 then wake t
  end
  else begin
    (* backpressure: answer now, from the accept thread, so the client
       learns immediately instead of queueing blind *)
    Metrics.incr "server.rejected_total";
    reply fd (Protocol.Retry_after t.cfg.retry_after_ms);
    try Unix.close fd with Unix.Unix_error _ -> ()
  end

let accept_loop t =
  while not (Atomic.get t.shutdown) do
    Mutex.protect t.idle_m (fun () ->
        while Atomic.get t.idle > 0 && not (Atomic.get t.shutdown) do
          Condition.wait t.all_busy t.idle_m
        done);
    (* a short select timeout doubles as the shutdown poll: SIGTERM
       lands in the main thread, which only flips the atomic *)
    match Unix.select [ t.sock ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ ->
      (* a worker that came free while this thread waited takes it *)
      if Atomic.get t.idle = 0 && not (Atomic.get t.shutdown) then
        Option.iter (admit t) (accept t)
  done

(* -- lifecycle ------------------------------------------------------------ *)

let ignore_sigpipe =
  lazy
    (if Sys.os_type = "Unix" then
       try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

let start ~config:cfg ~tables () =
  Lazy.force ignore_sigpipe;
  if Sys.file_exists cfg.socket_path then begin
    (* stale socket from a dead daemon, or a live one?  probe it *)
    let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect probe (Unix.ADDR_UNIX cfg.socket_path) with
    | () ->
      Unix.close probe;
      failwith (Fmt.str "a compile server is already serving %s" cfg.socket_path)
    | exception Unix.Unix_error _ ->
      Unix.close probe;
      (try Sys.remove cfg.socket_path with Sys_error _ -> ()))
  end;
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind sock (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen sock 128;
     (* workers race for each connection: the losers must see EAGAIN,
        not block in accept *)
     Unix.set_nonblock sock
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let workers = max 1 cfg.workers in
  let t =
    {
      cfg;
      sock;
      queue = Squeue.create ~capacity:cfg.queue_capacity;
      shutdown = Atomic.make false;
      n_served = Atomic.make 0;
      recorder = Flight.create cfg.flight_capacity;
      idle = Atomic.make workers;
      idle_m = Mutex.create ();
      all_busy = Condition.create ();
      wake_r;
      wake_w;
      pool = None;
      local = None;
      local_failure = None;
      acceptor = None;
      stopped = false;
      tables;
    }
  in
  (* worker 0 runs on this domain, which holds the accept and admin
     threads anyway; only the other workers cost a domain each, and
     every domain must stop for every minor collection *)
  if workers > 1 then
    t.pool <-
      Some (Parallel.spawn_pool ~domains:(workers - 1) (fun i -> worker t (i + 1)));
  t.local <-
    Some
      (Thread.create
         (fun () ->
           try worker t 0
           with e -> t.local_failure <- Some (e, Printexc.get_raw_backtrace ()))
         ());
  t.acceptor <- Some (Thread.create accept_loop t);
  Slog.info cfg.logger ~event:"serving"
    [
      Slog.str "socket" cfg.socket_path;
      Slog.int "workers" workers;
      Slog.int "queue_capacity" cfg.queue_capacity;
    ];
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.shutdown true;
    Mutex.protect t.idle_m (fun () -> Condition.broadcast t.all_busy);
    wake t;
    Option.iter Thread.join t.acceptor;
    (* close after the acceptor is gone: everything already queued is
       still popped and served before the workers see the end *)
    Squeue.close t.queue;
    Option.iter Thread.join t.local;
    Option.iter Parallel.join_pool t.pool;
    (* no worker or accept thread is left in select on these *)
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.sock; t.wake_r; t.wake_w ];
    (try Sys.remove t.cfg.socket_path with Sys_error _ -> ());
    Slog.info t.cfg.logger ~event:"drained"
      [ Slog.int "served" (Atomic.get t.n_served) ];
    Option.iter
      (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
      t.local_failure
  end

let served t = Atomic.get t.n_served
let queue_depth t = Squeue.length t.queue
let recorder t = t.recorder
