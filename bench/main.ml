(* The timed benchmarks: the measurements that no ledger metric
   (ledger/, BENCHMARK.json) covers yet, one section per experiment.
   Every deterministic result lives in the exact report
   (bench/report.ml, diffed by `dune runtest`); EXPERIMENTS.md records
   paper-vs-measured for each and names the ledger metric that took
   over each retired timing.

   Absolute numbers differ from 1982 hardware by construction; the
   *shape* of each result (who wins, by what factor) is the target. *)

open Gg_ir
module Naive = Gg_tablegen.Naive
module Lr0 = Gg_tablegen.Lr0
module Grammar_def = Gg_vax.Grammar_def
module Driver = Gg_codegen.Driver
module Backend = Gg_codegen.Backend
module Targets = Gg_targets.Targets
module Sema = Gg_frontc.Sema
module Corpus = Gg_frontc.Corpus
module Server = Gg_server.Server
module Protocol = Gg_server.Protocol
module Client = Gg_server.Client
module Slog = Gg_server.Slog
module Metrics = Gg_profile.Metrics
module Parallel = Gg_codegen.Parallel

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

(* non-flag arguments select sections by key (e.g. `main.exe throughput`);
   no arguments runs everything *)
let selected =
  Array.to_list Sys.argv |> List.tl
  |> List.filter (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--"))

let want key = selected = [] || List.mem key selected

(* a section whose acceptance floor fails sets this; main exits 1 *)
let floor_missed = ref false

let section title = Fmt.pr "@.=== %s ===@." title
let row fmt = Fmt.pr fmt

(* -- Bechamel helpers --------------------------------------------------------- *)

open Bechamel
open Toolkit

(* run named thunks under Bechamel; returns ns/run keyed by the name *)
let measure_ns tests =
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg
      ~limit:(if quick then 100 else 500)
      ~quota:(Time.second (if quick then 0.25 else 1.0))
      ()
  in
  let tests =
    List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) tests
  in
  let grouped = Test.make_grouped ~name:"bench" tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> (name, ns) :: acc
      | _ -> acc)
    results []

(* best-of-[repeats] per test: on a shared box a single Bechamel pass
   can absorb scheduler noise; the minimum estimate is the least
   contaminated one *)
let measure_ns_best ~repeats tests =
  let all = List.concat (List.init repeats (fun _ -> measure_ns tests)) in
  List.sort_uniq compare (List.map fst all)
  |> List.map (fun name ->
         ( name,
           List.fold_left
             (fun acc (n, v) -> if n = name then Float.min acc v else acc)
             Float.infinity all ))

let lookup results key =
  (* grouped test names carry a prefix; match by suffix *)
  List.find_map
    (fun (name, v) ->
      let n = String.length name and k = String.length key in
      if n >= k && String.sub name (n - k) k = key then Some v else None)
    results

(* -- corpora ------------------------------------------------------------------ *)

let corpus_program =
  lazy
    (Sema.lower_program
       (Corpus.large_program ~seed:42
          ~target_stmts:(if quick then 150 else 600)))

(* ============================================================================ *)
(* T-TBLC: table construction time (sections 7 and 9)                            *)
(* ============================================================================ *)

let bench_table_construction () =
  section
    "T-TBLC: table construction, naive vs improved (paper: >2 CPU hours -> \
     10 minutes, ~12x)";
  let subset =
    Grammar_def.grammar
      {
        Grammar_def.default with
        Grammar_def.int_types = [ Dtype.Long ];
        float_types = [];
      }
  in
  let time_once f =
    (* monotonic wall time, not CPU time: CPU time double-counts worker
       domains and would hide any -j speedup *)
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_naive, auto_naive = time_once (fun () -> Naive.build subset) in
  let t_fast, auto_fast = time_once (fun () -> Lr0.build subset) in
  assert (
    auto_naive.Gg_tablegen.Automaton.n_states
    = auto_fast.Gg_tablegen.Automaton.n_states);
  row "subset grammar (long only, as in the paper's daily iterations; %d states):@."
    auto_naive.Gg_tablegen.Automaton.n_states;
  row "  naive constructor:     %8.3f s@." t_naive;
  row "  improved constructor:  %8.3f s@." t_fast;
  row "  speedup:               %8.1fx   (paper: ~12x on the full grammar)@."
    (t_naive /. max 1e-6 t_fast)

(* ============================================================================ *)
(* THRU: multi-domain batch throughput                                          *)
(* ============================================================================ *)

(* the negative-scaling regression floor: -j 2 must never again be
   slower than -j 1 (the historic bug measured 0.61x; 0.95 absorbs
   runner noise) *)
let j2_floor = 0.95

let bench_throughput () =
  section "THRU: -j batch scaling of the second pass, vax target";
  let prog = Lazy.force corpus_program in
  let tables = Targets.default_tables Backend.Vax in
  (* the root cause of the old negative scaling, kept as a standing
     measurement: one Domain.spawn+join round trip, which the first
     Parallel.map paid per worker per batch *)
  let spawn_us =
    let reps = if quick then 5 else 20 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      Domain.join (Domain.spawn (fun () -> ()))
    done;
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int reps
  in
  row "Domain.spawn+join round trip: %.0f us@." spawn_us;
  let jlist = [ 1; 2; 4; 8 ] in
  let measure_jobs ~oversubscribe =
    let jresults =
      (* best-of-N: the first test of a single pass absorbs heap growth
         and page-fault warmup, which would charge -j1 (measured first)
         several times its steady-state cost *)
      measure_ns_best
        ~repeats:(if quick then 2 else 3)
        (List.map
           (fun j ->
             ( Fmt.str "batch-j%d" j,
               fun () ->
                 ignore
                   (Driver.compile_program ~tables ~jobs:j ~oversubscribe prog)
             ))
           jlist)
    in
    List.filter_map
      (fun j ->
        Option.map (fun ns -> (j, ns)) (lookup jresults (Fmt.str "batch-j%d" j)))
      jlist
  in
  (* the production path: the persistent pool, clamped to the host's
     cores — what `ggcc -j N` actually runs.  Shut the pool down before
     each curve: on a small host parked workers' stop-the-world
     participation would tax the clamped (possibly sequential) runs *)
  Parallel.shutdown ();
  let scaling = measure_jobs ~oversubscribe:false in
  (* the same batches forced through real domains past the clamp: on a
     multi-core host this matches the clamped curve; on a small host it
     prices the pure pool overhead (condvar handoff + stop-the-world
     GC across domains) that the clamp avoids paying *)
  Parallel.shutdown ();
  let pool_scaling = measure_jobs ~oversubscribe:true in
  (* both curves' -j 1 run the same sequential path, yet the first
     curve measured can still read slow (warm-up charged to it despite
     best-of-N; one run read 3.65 against 2.21 ms/compile).  An inflated
     baseline would let the floor pass on a regression, so every
     speedup divides the faster of the two readings *)
  let j1 =
    List.fold_left
      (fun acc rows ->
        match List.assoc_opt 1 rows with Some ns -> Float.min acc ns | None -> acc)
      infinity [ scaling; pool_scaling ]
  in
  let speedup ns = j1 /. ns in
  let print_curve rows =
    List.iter
      (fun (j, ns) ->
        row "  -j %d:  %8.2f ms/compile   speedup %.2fx@." j (ns /. 1e6)
          (speedup ns))
      rows
  in
  row
    "batch compile of the corpus (%d functions, recommended domains: %d, \
     effective -j clamped to the core count):@."
    (List.length prog.Tree.funcs)
    (Parallel.available ());
  print_curve scaling;
  row "same batches, forced multi-domain (pool overhead measurement):@.";
  print_curve pool_scaling;
  row "-j 1 baseline (faster of the two -j 1 readings): %.2f ms/compile@."
    (j1 /. 1e6);
  let j2 =
    match List.assoc_opt 2 scaling with Some ns -> speedup ns | None -> nan
  in
  row "-j 2 speedup vs -j 1: %.3fx (floor %.2f)@." j2 j2_floor;
  if not (j2 >= j2_floor) then begin
    Fmt.epr "throughput: -j 2 regressed to %.3fx of -j 1 (floor %.2f)@." j2
      j2_floor;
    floor_missed := true
  end;
  (* persist the trajectory *)
  let oc = open_out "BENCH_throughput.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"quick\": %b,\n" quick;
  p "  \"corpus\": { \"functions\": %d },\n" (List.length prog.Tree.funcs);
  p "  \"parallel\": {\n";
  p "    \"recommended_domains\": %d,\n" (Parallel.available ());
  p "    \"domain_spawn_us\": %.1f,\n" spawn_us;
  let scaling_rows key rows last =
    p "    \"%s\": [\n" key;
    List.iteri
      (fun k (j, ns) ->
        p
          "      { \"jobs\": %d, \"ms_per_compile\": %.3f, \"speedup_vs_j1\": \
           %.3f }%s\n"
          j (ns /. 1e6) (speedup ns)
          (if k = List.length rows - 1 then "" else ","))
      rows;
    p "    ]%s\n" (if last then "" else ",")
  in
  (* "scaling" is the production path (persistent pool, clamped to the
     core count); "pool_scaling" forces real domains past the clamp *)
  scaling_rows "scaling" scaling false;
  scaling_rows "pool_scaling" pool_scaling true;
  p "  }\n";
  p "}\n";
  close_out oc;
  row "written: BENCH_throughput.json@."

(* ============================================================================ *)
(* SERVE: warm compile server vs per-process compilation                        *)
(* ============================================================================ *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float ((q *. float_of_int (n - 1)) +. 0.5)))

(* -- open-loop load generation ------------------------------------------------ *)

(* per-request outcome codes for the open-loop run *)
let oc_ok = 0 (* assembly received *)
let oc_injected = 1 (* fail-injected request answered Error Internal *)
let oc_gave_up = 2 (* Retry_after retries exhausted *)
let oc_other = 3 (* anything else: a correctness problem *)

(* Arrivals follow a fixed schedule regardless of completions — the
   defining property of an open-loop generator: when the server falls
   behind, latency (not the offered rate) absorbs the lag, which is
   what N independent build jobs pointed at one daemon look like.  Each
   arrival is its own client thread (hundreds of concurrent clients at
   the tail), [burst] arrivals land at t=0 — more than the admission
   queue holds, so the Retry_after path is exercised deterministically
   — and every [fail_every]-th request carries fail-injection. *)
let open_loop ~socket ~requests ~burst ~rate_rps ~fail_every srcs =
  let retry_events = Atomic.make 0 in
  let in_flight = Atomic.make 0 in
  let max_in_flight = Atomic.make 0 in
  let lat_ms = Array.make requests nan in
  let outcome = Array.make requests oc_other in
  let one k =
    let injected = fail_every > 0 && k mod fail_every = fail_every - 1 in
    let src = srcs.(k mod Array.length srcs) in
    let req = Protocol.request ~fail_inject:injected src in
    let v = 1 + Atomic.fetch_and_add in_flight 1 in
    let rec bump () =
      let m = Atomic.get max_in_flight in
      if v > m && not (Atomic.compare_and_set max_in_flight m v) then bump ()
    in
    bump ();
    let t = Unix.gettimeofday () in
    let code =
      match
        Client.compile ~retries:8
          ~on_retry:(fun ~attempt:_ ~wait_ms:_ -> Atomic.incr retry_events)
          ~socket req
      with
      | Protocol.Asm _ -> if injected then oc_other else oc_ok
      | Protocol.Error (Protocol.Internal, _) ->
        if injected then oc_injected else oc_other
      | _ -> oc_other
      | exception Client.Server_error _ -> oc_gave_up
    in
    lat_ms.(k) <- (Unix.gettimeofday () -. t) *. 1e3;
    outcome.(k) <- code;
    ignore (Atomic.fetch_and_add in_flight (-1))
  in
  let threads = Array.make requests None in
  let t0 = Unix.gettimeofday () in
  for k = 0 to requests - 1 do
    if k >= burst then begin
      (* pace the post-burst arrivals; never wait for completions *)
      let due = t0 +. (float_of_int (k - burst) /. rate_rps) in
      let now = Unix.gettimeofday () in
      if due > now then Unix.sleepf (due -. now)
    end;
    threads.(k) <- Some (Thread.create one k)
  done;
  Array.iter (Option.iter Thread.join) threads;
  let wall = Unix.gettimeofday () -. t0 in
  ( lat_ms,
    outcome,
    wall,
    Atomic.get retry_events,
    Atomic.get max_in_flight )

let bench_serve () =
  section
    "SERVE: warm compile server vs per-process compilation (the paper's \
     table-reuse argument, amortised across processes)";
  (* the request corpus: examples/c when run from the repo root, else
     the built-in fixed programs *)
  let sources =
    let dir = "examples/c" in
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".c")
      |> List.sort compare
      |> List.map (fun f ->
             let file = Filename.concat dir f in
             let ic = open_in_bin file in
             let s = really_input_string ic (in_channel_length ic) in
             close_in ic;
             (file, s))
    else List.map (fun (n, s) -> (n ^ ".c", s)) Corpus.fixed_programs
  in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "ggccd-bench-%d.sock" (Unix.getpid ()))
  in
  let tables = Driver.cached_tables Driver.default_options.Driver.grammar in
  let workers = (Server.default_config ~socket_path:socket).Server.workers in
  let config =
    { (Server.default_config ~socket_path:socket) with Server.workers }
  in
  let server = Server.start ~config ~tables:(fun _ -> tables) () in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  (* correctness before speed: every served answer must be the bytes a
     direct compile produces *)
  let parity =
    List.for_all
      (fun (_, src) ->
        match Client.compile ~socket (Protocol.request src) with
        | Protocol.Asm asm ->
          asm
          = (Driver.compile_program ~tables (Sema.compile src)).Driver.assembly
        | _ -> false)
      sources
  in
  row "served output byte-identical to direct compilation: %b@." parity;
  let clients = 4 in
  let per_client = if quick then 25 else 150 in
  let srcs = Array.of_list (List.map snd sources) in
  (* closed-loop measurement, reused to price the ops plane below *)
  let closed_loop socket =
    let lats = Array.init clients (fun _ -> Array.make per_client 0.) in
    let t0 = Unix.gettimeofday () in
    let pool =
      Parallel.spawn_pool ~domains:clients (fun c ->
          for k = 0 to per_client - 1 do
            let src = srcs.((c + (k * clients)) mod Array.length srcs) in
            let t = Unix.gettimeofday () in
            (match Client.compile ~socket (Protocol.request src) with
            | Protocol.Asm _ -> ()
            | r ->
              ignore r;
              failwith "serve bench: unexpected response");
            lats.(c).(k) <- Unix.gettimeofday () -. t
          done)
    in
    Parallel.join_pool pool;
    let wall = Unix.gettimeofday () -. t0 in
    let all = Array.concat (Array.to_list lats) in
    Array.sort compare all;
    let n = Array.length all in
    ( n,
      wall,
      float_of_int n /. wall,
      percentile all 0.50 *. 1e3,
      percentile all 0.99 *. 1e3 )
  in
  (* -- the price of the ops plane: the same closed loop against a
     second server running full observability — info-level JSON logs to
     a file, the flight recorder, metrics histograms and slow-request
     detection.  The acceptance gate is < 3% throughput overhead.

     Measurement discipline: one discarded warm-up pass per server
     (domain ramp-up and allocator warm-up would otherwise masquerade
     as ops-plane overhead), then five measured passes per server,
     INTERLEAVED plain/observed.  Back-to-back blocks would hand
     whatever the machine does later — CPU-quota throttling, background
     load — entirely to the second configuration; the overhead is
     computed per adjacent plain/observed pair, so drift between pairs
     cancels, and reported as the median over pairs with its IQR.  A
     quick pass lasts tens of milliseconds, so when the IQR is at least
     the median's magnitude the reading is printed as unresolved rather
     than as a number it cannot support.  Metrics.enabled is
     global, so it is flipped around each pass: off for the plain
     server, on for the observed one. *)
  let obs_socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "ggccd-bench-obs-%d.sock" (Unix.getpid ()))
  in
  let obs_log = Filename.temp_file "ggcg-bench-obs" ".log" in
  let obs_log_oc = open_out obs_log in
  let obs_config =
    {
      (Server.default_config ~socket_path:obs_socket) with
      Server.workers;
      logger = Slog.to_channel ~level:Slog.Info obs_log_oc;
      slow_ms = 500;
      flight_capacity = 64;
    }
  in
  let was_metrics = !Metrics.enabled in
  let plain_pass () =
    Metrics.enabled := false;
    closed_loop socket
  in
  let obs_server =
    Metrics.enabled := true;
    Server.start ~config:obs_config ~tables:(fun _ -> tables) ()
  in
  let obs_pass () =
    Metrics.enabled := true;
    closed_loop obs_socket
  in
  let best passes =
    List.fold_left
      (fun ((_, _, best_rps, _, _) as best) ((_, _, rps, _, _) as pass) ->
        if rps > best_rps then pass else best)
      (List.hd passes) (List.tl passes)
  in
  let plain_passes, obs_passes =
    Fun.protect ~finally:(fun () ->
        Server.stop obs_server;
        Metrics.enabled := was_metrics;
        close_out obs_log_oc;
        Sys.remove obs_log)
    @@ fun () ->
    ignore (plain_pass ());
    ignore (obs_pass ());
    let pairs = List.init 5 (fun _ -> (plain_pass (), obs_pass ())) in
    (List.map fst pairs, List.map snd pairs)
  in
  let n_server, wall_server, rps_server, p50_server, p99_server =
    best plain_passes
  in
  row
    "warm server (%d workers, %d client domains): %d requests in %.2f s = \
     %.0f requests/s,  p50 %.2f ms  p99 %.2f ms@."
    workers clients n_server wall_server rps_server p50_server p99_server;
  let n_obs, wall_obs, rps_obs, p50_obs, p99_obs = best obs_passes in
  let overheads =
    Array.of_list
      (List.map2
         (fun (_, _, rps_plain, _, _) (_, _, rps_obs, _, _) ->
           (rps_plain -. rps_obs) /. rps_plain *. 100.)
         plain_passes obs_passes)
  in
  Array.sort compare overheads;
  let obs_overhead_pct = percentile overheads 0.50 in
  let obs_overhead_iqr =
    percentile overheads 0.75 -. percentile overheads 0.25
  in
  let obs_resolved = obs_overhead_iqr < Float.abs obs_overhead_pct in
  row
    "ops plane on (JSON logs + flight recorder + metrics): %d requests in \
     %.2f s = %.0f requests/s,  p50 %.2f ms  p99 %.2f ms@."
    n_obs wall_obs rps_obs p50_obs p99_obs;
  row
    "observability overhead:%s median %.1f%% of throughput, IQR %.1f%% \
     over %d pairs   (acceptance: < 3%%)@."
    (if obs_resolved then "" else " unresolved,")
    obs_overhead_pct obs_overhead_iqr (Array.length overheads);
  (* baseline: what a build system does without the daemon — one ggcc
     process per compile, each paying process start + table load from
     the (warm) cache *)
  let ggcc =
    let near =
      Filename.concat
        (Filename.dirname Sys.executable_name)
        (Filename.concat ".." (Filename.concat "bin" "ggcc.exe"))
    in
    if Sys.file_exists near then near else "ggcc"
  in
  let files =
    List.map
      (fun (name, src) ->
        if Sys.file_exists name then name
        else begin
          let f =
            Filename.temp_file "ggcg-serve"
              ("-" ^ Filename.basename name)
          in
          let oc = open_out f in
          output_string oc src;
          close_out oc;
          f
        end)
      sources
    |> Array.of_list
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let run_one file =
    let pid =
      Unix.create_process ggcc
        [| ggcc; "compile"; file |]
        Unix.stdin null Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith ("serve bench: " ^ ggcc ^ " failed on " ^ file)
  in
  let n_proc = if quick then 12 else 60 in
  let proc_lats = Array.make n_proc 0. in
  let t0 = Unix.gettimeofday () in
  for k = 0 to n_proc - 1 do
    let t = Unix.gettimeofday () in
    run_one files.(k mod Array.length files);
    proc_lats.(k) <- Unix.gettimeofday () -. t
  done;
  let wall_proc = Unix.gettimeofday () -. t0 in
  Unix.close null;
  Array.sort compare proc_lats;
  let rps_proc = float_of_int n_proc /. wall_proc in
  let p50_proc = percentile proc_lats 0.50 *. 1e3 in
  let p99_proc = percentile proc_lats 0.99 *. 1e3 in
  row
    "per-process ggcc (warm table cache):          %d compiles in %.2f s = \
     %.0f requests/s,  p50 %.2f ms  p99 %.2f ms@."
    n_proc wall_proc rps_proc p50_proc p99_proc;
  row "warm-server throughput vs per-process: %.1fx   (acceptance: > 1x)@."
    (rps_server /. rps_proc);
  (* -- open-loop worker sweep: the daemon under real load ------------------ *)
  let sweep_workers = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let requests = if quick then 150 else 400 in
  let burst = 64 in
  let rate = if quick then 150. else 300. in
  let fail_every = 37 in
  let queue_capacity = 16 in
  let p99_slo_ms = 250. in
  (* mixed request sizes: one-function snippets up to multi-KB programs *)
  let mixed_srcs =
    Array.of_list
      (List.concat_map
         (fun seed ->
           [
             Corpus.random_source ~seed ~functions:1 ~stmts_per_function:3;
             Corpus.random_source ~seed:(seed + 100) ~functions:3
               ~stmts_per_function:10;
             Corpus.random_source ~seed:(seed + 200) ~functions:6
               ~stmts_per_function:25;
           ])
         [ 1; 2; 3; 4 ])
  in
  let src_bytes = Array.map String.length mixed_srcs in
  let min_b = Array.fold_left min max_int src_bytes in
  let max_b = Array.fold_left max 0 src_bytes in
  row
    "open-loop sweep: %d requests per point (burst %d then %.0f req/s), \
     request sizes %d..%d B, fail-injection every %d, queue capacity %d:@."
    requests burst rate min_b max_b fail_every queue_capacity;
  let sweep =
    List.map
      (fun w ->
        let socket =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Fmt.str "ggccd-sweep-%d-w%d.sock" (Unix.getpid ()) w)
        in
        let config =
          {
            (Server.default_config ~socket_path:socket) with
            Server.workers = w;
            queue_capacity;
          }
        in
        let server = Server.start ~config ~tables:(fun _ -> tables) () in
        Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
        let lat, out, wall, retry_events, max_in_flight =
          open_loop ~socket ~requests ~burst ~rate_rps:rate ~fail_every
            mixed_srcs
        in
        let count c =
          Array.fold_left
            (fun acc o -> if o = c then acc + 1 else acc)
            0 out
        in
        let n_ok = count oc_ok in
        let n_injected = count oc_injected in
        let n_gave_up = count oc_gave_up in
        let n_other = count oc_other in
        let completed =
          Array.of_list
            (List.filteri
               (fun k _ -> out.(k) = oc_ok || out.(k) = oc_injected)
               (Array.to_list lat))
        in
        Array.sort compare completed;
        let p50 = percentile completed 0.50 in
        let p99 = percentile completed 0.99 in
        let achieved = float_of_int (n_ok + n_injected) /. wall in
        row
          "  workers %d: %d ok + %d injected errors, %d gave up, %d \
           unexpected; %d retry-after events, max %d in flight; %.0f req/s \
           achieved, p50 %.2f ms p99 %.2f ms%s@."
          w n_ok n_injected n_gave_up n_other retry_events max_in_flight
          achieved p50 p99
          (if p99 <= p99_slo_ms then "" else "  (p99 SLO MISSED)");
        (w, n_ok, n_injected, n_gave_up, n_other, retry_events, max_in_flight,
         wall, achieved, p50, p99))
      sweep_workers
  in
  let oc = open_out "BENCH_serve.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"quick\": %b,\n" quick;
  p "  \"sources\": %d,\n" (List.length sources);
  p "  \"parity_with_direct_compile\": %b,\n" parity;
  p "  \"closed_loop\": {\n";
  p "    \"workers\": %d,\n" workers;
  p "    \"client_domains\": %d,\n" clients;
  p "    \"requests\": %d,\n" n_server;
  p "    \"wall_s\": %.3f,\n" wall_server;
  p "    \"requests_per_sec\": %.1f,\n" rps_server;
  p "    \"p50_ms\": %.3f,\n" p50_server;
  p "    \"p99_ms\": %.3f\n" p99_server;
  p "  },\n";
  p "  \"per_process\": {\n";
  p "    \"requests\": %d,\n" n_proc;
  p "    \"wall_s\": %.3f,\n" wall_proc;
  p "    \"requests_per_sec\": %.1f,\n" rps_proc;
  p "    \"p50_ms\": %.3f,\n" p50_proc;
  p "    \"p99_ms\": %.3f\n" p99_proc;
  p "  },\n";
  p "  \"throughput_ratio\": %.2f,\n" (rps_server /. rps_proc);
  p "  \"observability\": {\n";
  p "    \"requests\": %d,\n" n_obs;
  p "    \"wall_s\": %.3f,\n" wall_obs;
  p "    \"requests_per_sec\": %.1f,\n" rps_obs;
  p "    \"p50_ms\": %.3f,\n" p50_obs;
  p "    \"p99_ms\": %.3f,\n" p99_obs;
  p "    \"overhead_pct_vs_closed_loop\": %.2f,\n" obs_overhead_pct;
  p "    \"overhead_iqr_pct\": %.2f,\n" obs_overhead_iqr;
  p "    \"overhead_resolved\": %b,\n" obs_resolved;
  p "    \"overhead_target_pct\": 3.0\n";
  p "  },\n";
  p "  \"open_loop\": {\n";
  p "    \"requests_per_point\": %d,\n" requests;
  p "    \"burst\": %d,\n" burst;
  p "    \"offered_rps_after_burst\": %.0f,\n" rate;
  p "    \"queue_capacity\": %d,\n" queue_capacity;
  p "    \"fail_injected_every\": %d,\n" fail_every;
  p "    \"request_bytes\": { \"min\": %d, \"max\": %d },\n" min_b max_b;
  p "    \"p99_slo_ms\": %.0f,\n" p99_slo_ms;
  p "    \"sweep\": [\n";
  List.iteri
    (fun k
         (w, n_ok, n_injected, n_gave_up, n_other, retry_events, max_in_flight,
          wall, achieved, p50, p99) ->
      p
        "      { \"workers\": %d, \"completed_ok\": %d, \
         \"fail_injected_errors\": %d, \"gave_up\": %d, \"unexpected\": %d, \
         \"retry_after_events\": %d, \"max_in_flight\": %d, \"wall_s\": \
         %.3f, \"achieved_rps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \
         \"p99_slo_met\": %b }%s\n"
        w n_ok n_injected n_gave_up n_other retry_events max_in_flight wall
        achieved p50 p99
        (p99 <= p99_slo_ms)
        (if k = List.length sweep - 1 then "" else ","))
    sweep;
  p "    ]\n";
  p "  }\n";
  p "}\n";
  close_out oc;
  row "written: BENCH_serve.json@."


(* ============================================================================ *)
(* RETARGET: the second machine description, measured against the first        *)
(* ============================================================================ *)

let bench_retarget () =
  section
    "RETARGET: full-pipeline compile time per target (the driver is shared, \
     so the gap is the description's own doing)";
  let prog = Lazy.force corpus_program in
  let results =
    measure_ns_best
      ~repeats:(if quick then 1 else 3)
      (List.map
         (fun target ->
           let tables = Targets.default_tables target in
           ( "c-" ^ Targets.name target,
             fun () -> ignore (Driver.compile_program ~tables prog) ))
         Targets.all)
  in
  match (lookup results "c-vax", lookup results "c-risc") with
  | Some v, Some r ->
    row "corpus compile: vax %.1f ms, risc %.1f ms (risc/vax %.2fx)@."
      (v /. 1e6) (r /. 1e6) (r /. v)
  | _ -> row "measurement failed@."

(* ============================================================================ *)

let () =
  Fmt.pr "Table-driven code generation: timed benchmarks%s@."
    (if quick then " (quick mode)" else "");
  let sections =
    [
      ("tblc", bench_table_construction);
      ("throughput", bench_throughput);
      ("retarget", bench_retarget);
      ("serve", bench_serve);
    ]
  in
  (match
     List.filter (fun k -> not (List.mem_assoc k sections)) selected
   with
  | [] -> ()
  | unknown ->
    Fmt.epr "unknown section(s): %a; known: %a@."
      Fmt.(list ~sep:comma string)
      unknown
      Fmt.(list ~sep:comma string)
      (List.map fst sections);
    exit 2);
  List.iter (fun (key, f) -> if want key then f ()) sections;
  Fmt.pr "@.done.@.";
  if !floor_missed then exit 1
