(* The compile server: wire-protocol round-trips, framing over real
   socketpairs, the bounded queue's blocking/backpressure/drain
   semantics, and end-to-end daemon behaviour — byte parity with
   direct compilation on the fixed corpus and 50 rendered fuzzed
   programs, the exception barrier, deadlines, backpressure, and
   graceful shutdown leaving no live domains. *)

module Protocol = Gg_server.Protocol
module Framing = Gg_server.Framing
module Squeue = Gg_server.Squeue
module Server = Gg_server.Server
module Client = Gg_server.Client
module Admin = Gg_server.Admin
module Flight = Gg_server.Flight
module Slog = Gg_server.Slog
module Json = Gg_profile.Json
module Trace = Gg_profile.Trace
module Metrics = Gg_profile.Metrics
module Parallel = Gg_codegen.Parallel
module Driver = Gg_codegen.Driver
module Backend = Gg_codegen.Backend
module Targets = Gg_targets.Targets
module Sema = Gg_frontc.Sema
module Corpus = Gg_frontc.Corpus

let tables = lazy (Lazy.force Driver.default_tables)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "ggcg-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?(workers = 2) ?(queue_capacity = 16) ?(flight_capacity = 64)
    ?crash_dump ?logger f =
  let socket = fresh_socket () in
  let config =
    {
      (Server.default_config ~socket_path:socket) with
      Server.workers;
      queue_capacity;
      read_timeout_s = 2.;
      flight_capacity;
      crash_dump;
      logger =
        (match logger with Some l -> l | None -> Slog.null);
    }
  in
  let t = Server.start ~config ~tables:Targets.default_tables () in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f socket t)

(* -- protocol ---------------------------------------------------------------- *)

let test_request_roundtrip () =
  let reqs =
    [
      Protocol.request "int main() { return 0; }";
      Protocol.request ~request_id:"" "int main() { return 0; }";
      Protocol.request ~request_id:"r1234-deadbeef-0001"
        "int main() { return 0; }";
      Protocol.request ~request_id:(String.make Protocol.max_request_id 'i')
        "int main() { return 0; }";
      Protocol.request ~target:Backend.Risc "int main() { return 0; }";
      Protocol.request ~target:Backend.Risc ~regalloc:Gg_codegen.Driver.Color
        "int main() { return 0; }";
      Protocol.request ~backend:Protocol.Pcc ~idioms:false ~peephole:true
        ~explain:true ~jobs:7 ~deadline_ms:1234 ~fail_inject:true ~sleep_ms:9
        "";
      Protocol.request (String.make 100_000 'x');
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "decode inverts encode" true
        (Protocol.decode_request (Protocol.encode_request r) = r))
    reqs

let test_request_ids () =
  (* the constructor defaults to a fresh id and truncates long ones *)
  let a = Protocol.request "int x;" and b = Protocol.request "int x;" in
  Alcotest.(check bool) "default ids are non-empty" true
    (a.Protocol.request_id <> "");
  Alcotest.(check bool) "default ids are distinct" true
    (a.Protocol.request_id <> b.Protocol.request_id);
  Alcotest.(check bool) "default ids fit the wire" true
    (String.length a.Protocol.request_id <= Protocol.max_request_id);
  let long = Protocol.request ~request_id:(String.make 300 'x') "int x;" in
  Alcotest.(check int) "an oversized id is truncated" Protocol.max_request_id
    (String.length long.Protocol.request_id);
  Alcotest.(check bool) "a truncated id still round-trips" true
    (Protocol.decode_request (Protocol.encode_request long) = long)

let test_old_versions_rejected () =
  (* v2/v3 frames (and any other version byte) must fail decode — the
     daemon answers Bad_request instead of misparsing the old layout *)
  let whole = Protocol.encode_request (Protocol.request "int x;") in
  List.iter
    (fun v ->
      let b = Bytes.of_string whole in
      Bytes.set b 1 (Char.chr v);
      match Protocol.decode_request (Bytes.to_string b) with
      | _ -> Alcotest.failf "accepted a version-%d frame" v
      | exception Protocol.Protocol_error m ->
        Alcotest.(check bool) "the error names the version" true
          (contains ~sub:(string_of_int v) m))
    [ 0; 1; 2; 3; 5; 255 ]

let test_response_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "decode inverts encode" true
        (Protocol.decode_response (Protocol.encode_response r) = r))
    [
      Protocol.Asm "  movl r0, r1\n";
      Protocol.Asm "";
      Protocol.Error (Protocol.Lex, "lexical error, line 3: bad char");
      Protocol.Error (Protocol.Parse, "syntax error, line 1: x");
      Protocol.Error (Protocol.Semantic, "undefined variable x");
      Protocol.Error (Protocol.Reject, "blocked");
      Protocol.Error (Protocol.Internal, "Stack_overflow");
      Protocol.Error (Protocol.Bad_request, "truncated");
      Protocol.Retry_after 50;
      Protocol.Timeout;
    ]

let test_decode_rejects_garbage () =
  let bad s =
    match Protocol.decode_request s with
    | _ -> Alcotest.failf "accepted %S" s
    | exception Protocol.Protocol_error _ -> ()
  in
  bad "";
  bad "x";
  bad "QQQQQQQQ";
  (* a valid request truncated at every prefix length must never
     decode (and never raise anything but Protocol_error) *)
  let whole = Protocol.encode_request (Protocol.request "int x;") in
  for n = 0 to String.length whole - 1 do
    bad (String.sub whole 0 n)
  done;
  match Protocol.decode_response "R" with
  | _ -> Alcotest.fail "accepted a truncated response"
  | exception Protocol.Protocol_error _ -> ()

(* -- protocol properties ----------------------------------------------------- *)

(* random well-formed requests: both backends, both targets, both
   allocators — except the Pcc/Risc and Pcc/Color pairings, which fail
   decode by design, so the generator never produces them *)
let request_gen =
  let open QCheck.Gen in
  oneofl [ Protocol.Gg; Protocol.Pcc ] >>= fun backend ->
  (if backend = Protocol.Pcc then return Backend.Vax
   else oneofl [ Backend.Vax; Backend.Risc ])
  >>= fun target ->
  (if backend = Protocol.Pcc then return Gg_codegen.Driver.Stack
   else oneofl [ Gg_codegen.Driver.Stack; Gg_codegen.Driver.Color ])
  >>= fun regalloc ->
  quad bool bool bool (int_range 1 64)
  >>= fun (idioms, peephole, explain, jobs) ->
  triple bool (int_range 0 1_000_000) (int_range 0 60_000)
  >>= fun (fail_inject, deadline_ms, sleep_ms) ->
  string_size (int_range 0 Protocol.max_request_id) >>= fun request_id ->
  string_size (int_range 0 2_000) >>= fun source ->
  return
    (Protocol.request ~request_id ~backend ~target ~regalloc ~idioms ~peephole
       ~explain ~jobs ~deadline_ms ~fail_inject ~sleep_ms source)

let response_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun s -> Protocol.Asm s) (string_size (int_range 0 2_000));
      map2
        (fun k m -> Protocol.Error (k, m))
        (oneofl
           [
             Protocol.Lex;
             Protocol.Parse;
             Protocol.Semantic;
             Protocol.Reject;
             Protocol.Internal;
             Protocol.Bad_request;
           ])
        (string_size (int_range 0 200));
      map (fun n -> Protocol.Retry_after n) (int_range 0 100_000);
      return Protocol.Timeout;
    ]

let prop_request_roundtrip =
  QCheck.Test.make ~name:"random requests survive encode/decode" ~count:300
    (QCheck.make request_gen)
    (fun r -> Protocol.decode_request (Protocol.encode_request r) = r)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"random responses survive encode/decode" ~count:300
    (QCheck.make response_gen)
    (fun r -> Protocol.decode_response (Protocol.encode_response r) = r)

(* a mutated frame may still decode (a flipped bit inside the source
   text is a different valid request), but the only exception the
   decoders may ever raise is Protocol_error — anything else would
   escape the daemon's Bad_request answer and kill the worker *)
let prop_request_mutation =
  QCheck.Test.make
    ~name:"byte-mutated request frames never escape Protocol_error" ~count:500
    (QCheck.make
       QCheck.Gen.(triple request_gen (int_range 0 max_int) (int_range 0 255)))
    (fun (r, pos, byte) ->
      let b = Bytes.of_string (Protocol.encode_request r) in
      Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
      match Protocol.decode_request (Bytes.to_string b) with
      | (_ : Protocol.request) -> true
      | exception Protocol.Protocol_error _ -> true)

let prop_response_mutation =
  QCheck.Test.make
    ~name:"byte-mutated response frames never escape Protocol_error" ~count:500
    (QCheck.make
       QCheck.Gen.(triple response_gen (int_range 0 max_int) (int_range 0 255)))
    (fun (r, pos, byte) ->
      let b = Bytes.of_string (Protocol.encode_response r) in
      Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
      match Protocol.decode_response (Bytes.to_string b) with
      | (_ : Protocol.response) -> true
      | exception Protocol.Protocol_error _ -> true)

(* -- framing ----------------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () -> f a b)

let test_framing_roundtrip () =
  with_socketpair @@ fun a b ->
  let payloads = [ ""; "x"; String.make 70_000 'p' ] in
  List.iter (Framing.write_frame a) payloads;
  List.iter
    (fun want ->
      match Framing.read_frame b with
      | Some got -> Alcotest.(check int) "frame length" (String.length want)
          (String.length got)
      | None -> Alcotest.fail "unexpected EOF")
    payloads;
  Unix.close a;
  Alcotest.(check bool) "clean EOF is None" true (Framing.read_frame b = None)

let test_framing_mid_frame_eof () =
  with_socketpair @@ fun a b ->
  (* a length prefix promising 100 bytes, then only 3 and EOF *)
  let buf = Bytes.create 7 in
  Bytes.set_int32_be buf 0 100l;
  Bytes.blit_string "abc" 0 buf 4 3;
  ignore (Unix.write a buf 0 7);
  Unix.close a;
  match Framing.read_frame b with
  | _ -> Alcotest.fail "mid-frame EOF must not decode"
  | exception Protocol.Protocol_error _ -> ()

let test_framing_oversized () =
  with_socketpair @@ fun a b ->
  let buf = Bytes.create 4 in
  Bytes.set_int32_be buf 0 (Int32.of_int (Protocol.max_frame + 1));
  ignore (Unix.write a buf 0 4);
  match Framing.read_frame b with
  | _ -> Alcotest.fail "oversized frame must not decode"
  | exception Protocol.Protocol_error _ -> ()

(* -- the bounded queue ------------------------------------------------------- *)

let test_squeue_bounds_and_drain () =
  let q = Squeue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Squeue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Squeue.try_push q 2);
  Alcotest.(check bool) "push to a full queue fails" false (Squeue.try_push q 3);
  Alcotest.(check int) "length" 2 (Squeue.length q);
  Squeue.close q;
  Alcotest.(check bool) "push after close fails" false (Squeue.try_push q 4);
  (* drain-after-close: the backlog is still served, in order *)
  Alcotest.(check (option int)) "drains 1" (Some 1) (Squeue.pop q);
  Alcotest.(check (option int)) "drains 2" (Some 2) (Squeue.pop q);
  Alcotest.(check (option int)) "then None" None (Squeue.pop q);
  Alcotest.(check (option int)) "None forever" None (Squeue.pop q)

let test_squeue_blocking_pop_across_domains () =
  let q = Squeue.create ~capacity:4 in
  let got = Atomic.make 0 in
  let consumers =
    Parallel.spawn_pool ~domains:3 (fun _ ->
        let rec loop () =
          match Squeue.pop q with
          | Some n ->
            ignore (Atomic.fetch_and_add got n);
            loop ()
          | None -> ()
        in
        loop ())
  in
  let pushed = ref 0 in
  for i = 1 to 100 do
    (* producers must tolerate transient fullness *)
    while not (Squeue.try_push q i) do
      Domain.cpu_relax ()
    done;
    pushed := !pushed + i
  done;
  Squeue.close q;
  Parallel.join_pool consumers;
  Alcotest.(check int) "every pushed item was popped exactly once" !pushed
    (Atomic.get got)

(* -- end-to-end -------------------------------------------------------------- *)

let direct_compile src =
  (Driver.compile_program ~tables:(Lazy.force tables) (Sema.compile src))
    .Driver.assembly

let expect_asm = function
  | Protocol.Asm a -> a
  | Protocol.Error (k, m) ->
    Alcotest.failf "error response %a: %s" Protocol.pp_error_kind k m
  | Protocol.Retry_after _ -> Alcotest.fail "unexpected Retry_after"
  | Protocol.Timeout -> Alcotest.fail "unexpected Timeout"

let test_e2e_parity_fixed_corpus () =
  with_server @@ fun socket _t ->
  List.iter
    (fun (name, src) ->
      let served = expect_asm (Client.compile ~socket (Protocol.request src)) in
      if served <> direct_compile src then
        Alcotest.failf "%s: served assembly differs from direct" name)
    Corpus.fixed_programs

let test_e2e_parity_fuzzed () =
  with_server @@ fun socket _t ->
  for seed = 1 to 50 do
    let src = Corpus.random_source ~seed ~functions:2 ~stmts_per_function:6 in
    let served = expect_asm (Client.compile ~socket (Protocol.request src)) in
    if served <> direct_compile src then
      Alcotest.failf "seed %d: served assembly differs from direct" seed
  done

let test_e2e_risc_target () =
  (* a --target risc request is served from the RISC tables — byte
     parity with a direct RISC compile — and an interleaved vax request
     still gets vax assembly: the per-target resolver never
     cross-serves *)
  with_server @@ fun socket _t ->
  List.iter
    (fun (name, src) ->
      let served =
        expect_asm
          (Client.compile ~socket (Protocol.request ~target:Backend.Risc src))
      in
      let direct =
        (Driver.compile_program
           ~tables:(Targets.default_tables Backend.Risc)
           (Sema.compile src))
          .Driver.assembly
      in
      if served <> direct then
        Alcotest.failf "%s: served risc assembly differs from direct" name;
      let vax = expect_asm (Client.compile ~socket (Protocol.request src)) in
      if vax <> direct_compile src then
        Alcotest.failf "%s: vax assembly wrong after a risc request" name)
    (List.filteri (fun i _ -> i < 3) Corpus.fixed_programs)

let test_e2e_pcc_risc_bad_request () =
  (* the pcc baseline emits VAX assembly only: a hand-built Pcc/Risc
     frame must come back Bad_request, never compiled against the wrong
     machine *)
  with_server @@ fun socket _t ->
  let frame =
    Protocol.encode_request
      (Protocol.request ~backend:Protocol.Pcc ~target:Backend.Risc
         "int main() { return 0; }")
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Framing.write_frame fd frame;
  match Framing.read_frame fd with
  | Some payload -> (
    match Protocol.decode_response payload with
    | Protocol.Error (Protocol.Bad_request, _) -> ()
    | _ -> Alcotest.fail "expected Bad_request for a Pcc/Risc frame")
  | None -> Alcotest.fail "no response to a Pcc/Risc frame"

let test_e2e_error_parity () =
  with_server @@ fun socket _t ->
  let expect src kind =
    match Client.compile ~socket (Protocol.request src) with
    | Protocol.Error (k, _) when k = kind -> ()
    | r ->
      Alcotest.failf "expected %a, got %s" Protocol.pp_error_kind kind
        (match r with
        | Protocol.Asm _ -> "Asm"
        | Protocol.Error (k, m) -> Fmt.str "Error(%a,%s)" Protocol.pp_error_kind k m
        | Protocol.Retry_after _ -> "Retry_after"
        | Protocol.Timeout -> "Timeout")
  in
  expect "int main() { return $; }" Protocol.Lex;
  expect "int main() { return; } }" Protocol.Parse;
  expect "int main() { return nope; }" Protocol.Semantic

(* Front-end rejections are the client's fault, not a crash: an
   out-of-range literal or an impossible array comes back typed, and
   the crash barrier writes no flight dump for them. *)
let test_e2e_frontend_limits_not_internal () =
  let dump = fresh_socket () ^ ".flight.json" in
  (* one worker: each request, crash dump included, is finished before
     the next one is taken *)
  with_server ~workers:1 ~crash_dump:dump @@ fun socket _t ->
  Fun.protect ~finally:(fun () -> try Sys.remove dump with Sys_error _ -> ())
  @@ fun () ->
  let expect src kind msg =
    match Client.compile ~socket (Protocol.request src) with
    | Protocol.Error (k, m) when k = kind ->
      Alcotest.(check string) src msg m
    | Protocol.Error (k, m) ->
      Alcotest.failf "%s: expected %a, got %a: %s" src Protocol.pp_error_kind
        kind Protocol.pp_error_kind k m
    | _ -> Alcotest.failf "%s: expected an error response" src
  in
  expect "int main() {\n  return 99999999999999999999;\n}" Protocol.Lex
    "lexical error, line 2: integer literal out of range";
  expect "int main() { return 9223372036854775808; }" Protocol.Lex
    "lexical error, line 1: integer literal out of range";
  expect "int main() { int a[0]; return 0; }" Protocol.Semantic
    "array a has dimension 0, must be at least 1";
  expect "int g[99999999999]; int main() { return 0; }" Protocol.Semantic
    "array g is too large: 99999999999 elements of 4 bytes";
  let ok = Protocol.request "int main() { return 0; }" in
  ignore (expect_asm (Client.compile ~socket ok));
  Alcotest.(check bool) "no crash dump" false (Sys.file_exists dump)

let test_e2e_crash_barrier_keeps_serving () =
  with_server @@ fun socket t ->
  let src = "int main() { return 7; }" in
  (* a compile that crashes inside codegen becomes an Internal error
     response... *)
  (match Client.compile ~socket (Protocol.request ~fail_inject:true src) with
  | Protocol.Error (Protocol.Internal, m) ->
    Alcotest.(check bool) "the injected message survives" true
      (contains ~sub:"fail_inject" m)
  | _ -> Alcotest.fail "expected an Internal error response");
  (* ...and the daemon keeps serving on the same socket *)
  let served = expect_asm (Client.compile ~socket (Protocol.request src)) in
  Alcotest.(check string) "still byte-identical after the crash"
    (direct_compile src) served;
  Alcotest.(check bool) "both requests were counted" true (Server.served t >= 2)

let test_e2e_deadline_timeout () =
  with_server @@ fun socket _t ->
  match
    Client.compile ~socket
      (Protocol.request ~sleep_ms:300 ~deadline_ms:50 "int main() { return 0; }")
  with
  | Protocol.Timeout -> ()
  | _ -> Alcotest.fail "expected Timeout"

let test_e2e_malformed_frame () =
  with_server @@ fun socket _t ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Framing.write_frame fd "this is not a request";
  match Framing.read_frame fd with
  | Some payload -> (
    match Protocol.decode_response payload with
    | Protocol.Error (Protocol.Bad_request, _) -> ()
    | _ -> Alcotest.fail "expected Bad_request")
  | None -> Alcotest.fail "no response to a malformed frame"

let test_e2e_backpressure () =
  (* one worker and a capacity-1 queue: a slow request (the sleep_ms
     hook) pins the worker, a silent connection fills the queue, and a
     burst of further connects must all see Retry_after from the accept
     thread while the worker is still busy *)
  with_server ~workers:1 ~queue_capacity:1 @@ fun socket _t ->
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    fd
  in
  let holder = connect () in
  Framing.write_frame holder
    (Protocol.encode_request
       (Protocol.request ~sleep_ms:2_000 "int main() { return 0; }"));
  Unix.sleepf 0.2 (* the worker pops the holder and starts sleeping *);
  let filler = connect () in
  Unix.sleepf 0.2 (* the filler is enqueued: the queue is now full *);
  let rejected = ref 0 in
  let extras =
    List.init 8 (fun _ ->
        let fd = connect () in
        (match Framing.read_frame fd with
        | Some payload -> (
          match Protocol.decode_response payload with
          | Protocol.Retry_after ms when ms > 0 -> incr rejected
          | _ -> ())
        | None | (exception Unix.Unix_error _) -> ());
        fd)
  in
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    (holder :: filler :: extras);
  Alcotest.(check int)
    (Fmt.str "every burst connect was rejected (%d of 8)" !rejected)
    8 !rejected

let test_retry_exhaustion () =
  (* a persistently full queue: Client.compile must back off, retry the
     configured number of times reporting each wait through on_retry,
     and then raise — the caller never sees Retry_after as an answer *)
  with_server ~workers:1 ~queue_capacity:1 @@ fun socket _t ->
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    fd
  in
  let holder = connect () in
  Framing.write_frame holder
    (Protocol.encode_request
       (Protocol.request ~sleep_ms:2_000 "int main() { return 0; }"));
  Unix.sleepf 0.2 (* the worker pops the holder and starts sleeping *);
  let filler = connect () in
  Unix.sleepf 0.2 (* the filler is enqueued: the queue is now full *);
  let events = ref [] in
  (match
     Client.compile ~retries:2
       ~on_retry:(fun ~attempt ~wait_ms ->
         events := (attempt, wait_ms) :: !events)
       ~socket
       (Protocol.request "int main() { return 1; }")
   with
  | _ -> Alcotest.fail "expected Server_error on retry exhaustion"
  | exception Client.Server_error m ->
    Alcotest.(check bool) "message counts the attempts" true
      (contains ~sub:"gave up after 3 attempts" m);
    Alcotest.(check bool) "message totals the backoff" true
      (contains ~sub:"ms of backoff" m));
  Alcotest.(check int) "on_retry fired once per sleep" 2 (List.length !events);
  List.iter
    (fun (attempt, wait_ms) ->
      Alcotest.(check bool)
        (Fmt.str "attempt %d wait within the cap" attempt)
        true
        (wait_ms >= 1 && wait_ms <= 2_000))
    !events;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ holder; filler ]

(* -- the ops plane: flight recorder, slog, admin, request ids ---------------- *)

let test_flight_wraparound () =
  let r = Flight.create 4 in
  let entry i =
    {
      Flight.fe_id = Fmt.str "req-%d" i;
      fe_bytes = i;
      fe_target = "vax";
      fe_regalloc = "stack";
      fe_outcome = "ok";
      fe_queue_wait_us = 1;
      fe_latency_us = 10 * i;
      fe_worker = 0;
      fe_ts = float_of_int i;
    }
  in
  Alcotest.(check (list string)) "empty ring" []
    (List.map (fun e -> e.Flight.fe_id) (Flight.entries r));
  for i = 1 to 10 do
    Flight.record r (entry i)
  done;
  Alcotest.(check int) "capacity" 4 (Flight.capacity r);
  Alcotest.(check int) "recorded counts every entry" 10 (Flight.recorded r);
  Alcotest.(check (list string)) "ring keeps the last N, oldest first"
    [ "req-7"; "req-8"; "req-9"; "req-10" ]
    (List.map (fun e -> e.Flight.fe_id) (Flight.entries r));
  (* the dump is one valid JSON document that names every retained id *)
  let doc = Json.parse (Flight.to_json r) in
  let ids =
    match Option.bind (Json.member "entries" doc) Json.to_list with
    | Some es ->
      List.filter_map
        (fun e -> Option.bind (Json.member "id" e) Json.to_str)
        es
    | None -> Alcotest.fail "flight dump has no entries array"
  in
  Alcotest.(check (list string)) "dump ids in ring order"
    [ "req-7"; "req-8"; "req-9"; "req-10" ]
    ids;
  Alcotest.(check (option int)) "dump records the total"
    (Some 10)
    (Option.bind (Json.member "recorded" doc) Json.to_int)

let test_flight_concurrent_records () =
  (* 4 domains hammer a small ring while the main thread reads it: no
     crash, every read entry internally consistent, and the final count
     is exact *)
  let r = Flight.create 8 in
  let per_domain = 500 in
  let pool =
    Parallel.spawn_pool ~domains:4 (fun d ->
        for i = 1 to per_domain do
          Flight.record r
            {
              Flight.fe_id = Fmt.str "d%d-%d" d i;
              fe_bytes = i;
              fe_target = "vax";
              fe_regalloc = "stack";
              fe_outcome = "ok";
              fe_queue_wait_us = 0;
              fe_latency_us = i;
              fe_worker = d;
              fe_ts = 0.;
            }
        done)
  in
  for _ = 1 to 200 do
    List.iter
      (fun e ->
        if not (contains ~sub:"-" e.Flight.fe_id) then
          Alcotest.failf "torn entry id %S" e.Flight.fe_id)
      (Flight.entries r)
  done;
  Parallel.join_pool pool;
  Alcotest.(check int) "every record counted" (4 * per_domain)
    (Flight.recorded r);
  Alcotest.(check int) "ring holds capacity entries" 8
    (List.length (Flight.entries r))

let test_slog_structure_and_levels () =
  let lines = ref [] in
  let logger = Slog.create ~level:Slog.Info (fun l -> lines := l :: !lines) in
  Slog.debug logger ~event:"dropped" [];
  Slog.info logger ~event:"request.done"
    [
      Slog.str "request_id" "r-1";
      Slog.int "latency_us" 1234;
      Slog.str "tricky" "a\"b\nc";
    ];
  Slog.warn logger ~event:"request.slow" [ Slog.int "slow_ms" 500 ];
  let lines = List.rev !lines in
  Alcotest.(check int) "debug below the level is dropped" 2
    (List.length lines);
  List.iter
    (fun line ->
      let j =
        try Json.parse line
        with Json.Parse_error m -> Alcotest.failf "bad log line %S: %s" line m
      in
      Alcotest.(check bool) "every record has a ts" true
        (Json.member "ts" j <> None);
      Alcotest.(check bool) "every record has a level" true
        (Json.member "level" j <> None))
    lines;
  let first = Json.parse (List.nth lines 0) in
  Alcotest.(check (option string)) "event field" (Some "request.done")
    (Option.bind (Json.member "event" first) Json.to_str);
  Alcotest.(check (option string)) "request id field" (Some "r-1")
    (Option.bind (Json.member "request_id" first) Json.to_str);
  Alcotest.(check (option int)) "int field" (Some 1234)
    (Option.bind (Json.member "latency_us" first) Json.to_int);
  Alcotest.(check (option string)) "escaping survives the round-trip"
    (Some "a\"b\nc")
    (Option.bind (Json.member "tricky" first) Json.to_str);
  Alcotest.(check (option string)) "level names match" (Some "warn")
    (Option.bind (Json.member "level" (Json.parse (List.nth lines 1))) Json.to_str)

(* one admin conversation, exactly what `mdgtool top` and the CI smoke
   job do: connect, one command line, read the reply to EOF *)
let admin_query sock cmd =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let line = cmd ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line) : int);
  let b = Buffer.create 1024 in
  let buf = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b buf 0 n;
      drain ()
  in
  drain ();
  Buffer.contents b

let test_admin_endpoint () =
  with_server @@ fun socket server ->
  let admin_sock = fresh_socket () in
  let admin =
    Admin.start ~socket_path:admin_sock
      ~handle:(Admin.default_handler ~server ~drain:ignore)
  in
  Fun.protect ~finally:(fun () -> Admin.stop admin)
  @@ fun () ->
  let requests_total () =
    let stats = Json.parse (admin_query admin_sock "stats") in
    Option.bind (Json.member "counters" stats)
      (Json.member "server.requests_total")
    |> fun o ->
    Option.value ~default:(-1) (Option.bind o Json.to_int)
  in
  let before = requests_total () in
  Alcotest.(check bool) "stats parses and has the counter" true (before >= 0);
  ignore
    (expect_asm (Client.compile ~socket (Protocol.request "int main() { return 5; }")));
  Alcotest.(check int) "the counter moved by exactly one request"
    (before + 1) (requests_total ());
  (* live stats are the very document the shutdown sidecar writes *)
  Alcotest.(check string) "admin stats = Metrics.to_json"
    (Metrics.to_json ())
    (admin_query admin_sock "stats");
  let health = Json.parse (admin_query admin_sock "health") in
  Alcotest.(check (option string)) "health status" (Some "ok")
    (Option.bind (Json.member "status" health) Json.to_str);
  Alcotest.(check bool) "health counts served requests" true
    (Option.bind (Json.member "served" health) Json.to_int = Some (Server.served server));
  (* the prometheus exposition names the counter with its value *)
  let prom = admin_query admin_sock "metrics" in
  Alcotest.(check bool) "prometheus TYPE line present" true
    (contains ~sub:"# TYPE ggcg_server_requests_total counter" prom);
  (* the flight command answers the live ring *)
  let flight = Json.parse (admin_query admin_sock "flight") in
  Alcotest.(check bool) "flight has at least the one request" true
    (match Option.bind (Json.member "entries" flight) Json.to_list with
    | Some es -> List.length es >= 1
    | None -> false);
  (* unknown commands answer an error object, not a hangup *)
  let err = Json.parse (admin_query admin_sock "bogus") in
  Alcotest.(check bool) "unknown command names itself" true
    (match Option.bind (Json.member "error" err) Json.to_str with
    | Some m -> contains ~sub:"bogus" m
    | None -> false)

let test_admin_drain_invokes_callback () =
  with_server @@ fun _socket server ->
  let admin_sock = fresh_socket () in
  let drained = Atomic.make false in
  let admin =
    Admin.start ~socket_path:admin_sock
      ~handle:
        (Admin.default_handler ~server ~drain:(fun () ->
             Atomic.set drained true))
  in
  Fun.protect ~finally:(fun () -> Admin.stop admin)
  @@ fun () ->
  let reply = Json.parse (admin_query admin_sock "drain") in
  Alcotest.(check (option string)) "drain acknowledges" (Some "draining")
    (Option.bind (Json.member "status" reply) Json.to_str);
  Alcotest.(check bool) "the drain callback fired" true (Atomic.get drained)

let wait_for_file ?(timeout_s = 5.) path =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if Sys.file_exists path then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

let test_crash_barrier_dumps_flight () =
  let dump = fresh_socket () ^ ".flight.json" in
  with_server ~crash_dump:dump @@ fun socket _t ->
  let id = "crash-correlate-me" in
  (match
     Client.compile ~socket
       (Protocol.request ~request_id:id ~fail_inject:true "int main() { return 0; }")
   with
  | Protocol.Error (Protocol.Internal, _) -> ()
  | _ -> Alcotest.fail "expected an Internal error response");
  Alcotest.(check bool) "the crash produced a dump" true (wait_for_file dump);
  Fun.protect ~finally:(fun () -> try Sys.remove dump with Sys_error _ -> ())
  @@ fun () ->
  (* the dump may still be re-written by the worker; parse with retry *)
  let doc =
    let rec parse tries =
      match Json.parse_file dump with
      | j -> j
      | exception Json.Parse_error _ when tries > 0 ->
        Unix.sleepf 0.05;
        parse (tries - 1)
    in
    parse 20
  in
  let entries =
    Option.value ~default:[]
      (Option.bind (Json.member "entries" doc) Json.to_list)
  in
  let crashing =
    List.find_opt
      (fun e -> Option.bind (Json.member "id" e) Json.to_str = Some id)
      entries
  in
  match crashing with
  | None -> Alcotest.failf "dump does not contain the crashing request %s" id
  | Some e ->
    Alcotest.(check (option string)) "the entry records the internal outcome"
      (Some "internal")
      (Option.bind (Json.member "outcome" e) Json.to_str)

let test_request_id_threads_through_spans () =
  (* the one id must appear on the server's request span and on every
     client-side span — that is what trace-merge correlates on *)
  Trace.enabled := true;
  Trace.reset ();
  Fun.protect ~finally:(fun () ->
      Trace.enabled := false;
      Trace.reset ())
  @@ fun () ->
  let id = "trace-correlate-me" in
  (with_server
  @@ fun socket _t ->
  ignore
    (expect_asm
       (Client.compile ~socket
          (Protocol.request ~request_id:id "int main() { return 0; }"))));
  let tagged name =
    List.exists
      (fun (e : Trace.event) ->
        e.Trace.ev_name = name
        && List.mem_assoc "request_id" e.Trace.ev_args
        && List.assoc "request_id" e.Trace.ev_args = id)
      (Trace.events ())
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span carries the id") true (tagged name))
    [ "request"; "client.connect"; "client.write"; "client.await" ];
  (* and the exported document renders the args *)
  Alcotest.(check bool) "exported trace carries the id" true
    (contains ~sub:id (Trace.export ()))

let test_e2e_old_version_bad_request () =
  (* a well-formed v3 frame against a v4 daemon: answered Bad_request,
     the daemon keeps serving *)
  with_server @@ fun socket _t ->
  let frame =
    let b = Bytes.of_string (Protocol.encode_request (Protocol.request "int x;")) in
    Bytes.set b 1 '\003';
    Bytes.to_string b
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Framing.write_frame fd frame;
  (match Framing.read_frame fd with
  | Some payload -> (
    match Protocol.decode_response payload with
    | Protocol.Error (Protocol.Bad_request, m) ->
      Alcotest.(check bool) "the answer names the version" true
        (contains ~sub:"version" m)
    | _ -> Alcotest.fail "expected Bad_request for a v3 frame")
  | None -> Alcotest.fail "no response to a v3 frame");
  let src = "int main() { return 9; }" in
  Alcotest.(check string) "still serving v4 after the v3 frame"
    (direct_compile src)
    (expect_asm (Client.compile ~socket (Protocol.request src)))

(* -- spawn on demand --------------------------------------------------------- *)

let ggccd_path () =
  (* tests run from _build/default/test; the daemon sits next door *)
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "ggccd.exe"))

let test_concurrent_double_ensure () =
  (* two --spawn clients race to start a daemon on the same fresh
     socket: both must succeed — one child wins the socket, the
     loser's exit is treated as the race it is, not a failure — and
     every child this process forked must be reapable (no zombies) *)
  let ggccd = ggccd_path () in
  Alcotest.(check bool) (Fmt.str "daemon binary %s exists" ggccd) true
    (Sys.file_exists ggccd);
  (* prewarm the on-disk table cache in a private directory the
     children inherit, so daemon startup is cache-load fast *)
  let cache_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "ggcg-test-cache-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir cache_dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.putenv "GGCG_CACHE_DIR" cache_dir;
  ignore
    (Driver.cached_tables ~dir:cache_dir Driver.default_options.Driver.grammar);
  let socket = fresh_socket () in
  let results = Array.make 2 (Error "unset") in
  let callers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            results.(i) <-
              (match Client.ensure ~ggccd ~wait_s:30. ~socket ~spawn:true () with
              | pid -> Ok pid
              | exception Client.Server_error m -> Error m)))
  in
  List.iter Domain.join callers;
  let pids =
    Array.to_list results
    |> List.filter_map (function Ok (Some pid) -> Some pid | _ -> None)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun pid ->
          try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
        pids;
      List.iter
        (fun pid ->
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        pids)
  @@ fun () ->
  Array.iter
    (function
      | Ok _ -> ()
      | Error m -> Alcotest.failf "a racing ensure failed: %s" m)
    results;
  Alcotest.(check bool) "at least one caller owns the serving daemon" true
    (pids <> []);
  (* the survivor really serves, byte-identical to direct compilation *)
  let src = "int main() { return 42; }" in
  Alcotest.(check string) "the race winner compiles correctly"
    (direct_compile src)
    (expect_asm (Client.compile ~socket (Protocol.request src)));
  (* a third ensure against the live socket spawns nothing *)
  Alcotest.(check bool) "ensure on a live socket spawns nothing" true
    (Client.ensure ~ggccd ~socket ~spawn:true () = None)

let test_sigquit_flight_dump () =
  (* the real daemon: SIGQUIT must produce a well-formed flight dump
     naming the served request, and the daemon must keep serving *)
  let ggccd = ggccd_path () in
  let socket = fresh_socket () in
  let dump = socket ^ ".flight.json" in
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process ggccd
      [| ggccd; "--socket"; socket; "--flight-dump"; dump; "--workers"; "2" |]
      null_in null_out null_out
  in
  Unix.close null_in;
  Unix.close null_out;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ dump; socket ])
  @@ fun () ->
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait_alive () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "daemon did not start serving"
      else begin
        Unix.sleepf 0.1;
        wait_alive ()
      end
  in
  wait_alive ();
  let id = "sigquit-correlate-me" in
  ignore
    (expect_asm
       (Client.compile ~socket
          (Protocol.request ~request_id:id "int main() { return 0; }")));
  Unix.kill pid Sys.sigquit;
  Alcotest.(check bool) "SIGQUIT produced the dump" true (wait_for_file dump);
  let doc =
    let rec parse tries =
      match Json.parse_file dump with
      | j -> j
      | exception (Json.Parse_error _ | Sys_error _) when tries > 0 ->
        Unix.sleepf 0.05;
        parse (tries - 1)
    in
    parse 20
  in
  let ids =
    Option.value ~default:[]
      (Option.bind (Json.member "entries" doc) Json.to_list)
    |> List.filter_map (fun e -> Option.bind (Json.member "id" e) Json.to_str)
  in
  Alcotest.(check bool) "the dump names the served request" true
    (List.mem id ids);
  (* still serving after the dump *)
  let src = "int main() { return 4; }" in
  Alcotest.(check string) "daemon survives SIGQUIT"
    (direct_compile src)
    (expect_asm (Client.compile ~socket (Protocol.request src)))

let test_e2e_graceful_stop () =
  let socket = fresh_socket () in
  let config =
    { (Server.default_config ~socket_path:socket) with Server.workers = 2 }
  in
  let t = Server.start ~config ~tables:(fun _ -> Lazy.force tables) () in
  let src = "int main() { return 3; }" in
  ignore (expect_asm (Client.compile ~socket (Protocol.request src)));
  Server.stop t;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket);
  Alcotest.(check int) "no live worker domains" 0 (Parallel.live_domains ());
  Server.stop t (* idempotent *);
  match Client.compile ~socket (Protocol.request src) with
  | _ -> Alcotest.fail "a stopped server must not answer"
  | exception Client.Server_error _ -> ()

let test_start_refuses_live_socket () =
  with_server @@ fun socket _t ->
  let config = Server.default_config ~socket_path:socket in
  match Server.start ~config ~tables:(fun _ -> Lazy.force tables) () with
  | t2 ->
    Server.stop t2;
    Alcotest.fail "second server bound a live socket"
  | exception Failure m ->
    Alcotest.(check bool) "message names the socket" true
      (contains ~sub:socket m)

let suite =
  [
    Alcotest.test_case "protocol: request round-trip" `Quick
      test_request_roundtrip;
    Alcotest.test_case "protocol: response round-trip" `Quick
      test_response_roundtrip;
    Alcotest.test_case "protocol: garbage and truncations rejected" `Quick
      test_decode_rejects_garbage;
    Alcotest.test_case "protocol: request ids default, dedupe, truncate" `Quick
      test_request_ids;
    Alcotest.test_case "protocol: v0-v3 and future versions rejected" `Quick
      test_old_versions_rejected;
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_response_roundtrip;
    QCheck_alcotest.to_alcotest prop_request_mutation;
    QCheck_alcotest.to_alcotest prop_response_mutation;
    Alcotest.test_case "framing: round-trip and clean EOF" `Quick
      test_framing_roundtrip;
    Alcotest.test_case "framing: mid-frame EOF is an error" `Quick
      test_framing_mid_frame_eof;
    Alcotest.test_case "framing: oversized frame is an error" `Quick
      test_framing_oversized;
    Alcotest.test_case "squeue: bounds, close, drain-after-close" `Quick
      test_squeue_bounds_and_drain;
    Alcotest.test_case "squeue: MPMC across domains" `Quick
      test_squeue_blocking_pop_across_domains;
    Alcotest.test_case "e2e: byte parity on the fixed corpus" `Slow
      test_e2e_parity_fixed_corpus;
    Alcotest.test_case "e2e: byte parity on 50 fuzzed programs" `Slow
      test_e2e_parity_fuzzed;
    Alcotest.test_case "e2e: risc target served from risc tables" `Quick
      test_e2e_risc_target;
    Alcotest.test_case "e2e: Pcc/Risc frame answered Bad_request" `Quick
      test_e2e_pcc_risc_bad_request;
    Alcotest.test_case "e2e: frontend errors come back typed" `Quick
      test_e2e_error_parity;
    Alcotest.test_case "e2e: crash inside codegen, daemon keeps serving" `Quick
      test_e2e_crash_barrier_keeps_serving;
    Alcotest.test_case "e2e: deadline produces Timeout" `Quick
      test_e2e_deadline_timeout;
    Alcotest.test_case "e2e: malformed frame answered Bad_request" `Quick
      test_e2e_malformed_frame;
    Alcotest.test_case "e2e: full queue answers Retry_after" `Quick
      test_e2e_backpressure;
    Alcotest.test_case "client: retry exhaustion raises, backoff capped" `Quick
      test_retry_exhaustion;
    Alcotest.test_case "flight: ring wrap-around keeps the last N" `Quick
      test_flight_wraparound;
    Alcotest.test_case "flight: lock-free under 4 recording domains" `Quick
      test_flight_concurrent_records;
    Alcotest.test_case "slog: JSON lines, levels, escaping" `Quick
      test_slog_structure_and_levels;
    Alcotest.test_case "admin: stats/health/metrics/flight over the socket"
      `Quick test_admin_endpoint;
    Alcotest.test_case "admin: drain invokes the shutdown callback" `Quick
      test_admin_drain_invokes_callback;
    Alcotest.test_case "flight: crash barrier dumps the crashing id" `Quick
      test_crash_barrier_dumps_flight;
    Alcotest.test_case "trace: request id rides client and server spans"
      `Quick test_request_id_threads_through_spans;
    Alcotest.test_case "e2e: v3 frame answered Bad_request, v4 still served"
      `Quick test_e2e_old_version_bad_request;
    Alcotest.test_case "e2e: SIGQUIT dumps the flight recorder" `Slow
      test_sigquit_flight_dump;
    Alcotest.test_case "client: concurrent double-ensure both succeed" `Slow
      test_concurrent_double_ensure;
    Alcotest.test_case "e2e: graceful stop, idempotent, no live domains" `Quick
      test_e2e_graceful_stop;
    Alcotest.test_case "start refuses a socket with a live server" `Quick
      test_start_refuses_live_socket;
    Alcotest.test_case "e2e: frontend limits are not crashes" `Quick
      test_e2e_frontend_limits_not_internal;
  ]
