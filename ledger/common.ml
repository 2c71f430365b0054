(* Shared plumbing of the ledger benchmark: command line, the per-run
   work directory, correctness accounting and the metric report. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

(* the daemon serve-mixed spawns, as dune builds it *)
let ggccd = "_build/default/bin/ggccd.exe"

let usage =
  "ledger --workload compile-vax|compile-risc-color|serve-mixed --seed N \
   --seconds S --trace 0|1"

let die fmt =
  Fmt.kstr
    (fun m ->
      Fmt.epr "ledger: %s@." m;
      exit 2)
    fmt

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--"
      ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | x :: _ -> die "unexpected argument %s\nusage: %s" x usage
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k =
    match List.assoc_opt k kv with Some v -> v | None -> die "missing --%s" k
  in
  let int k =
    match int_of_string_opt (get k) with
    | Some n -> n
    | None -> die "--%s wants an integer" k
  in
  let seconds = int "seconds" in
  if seconds < 1 then die "--seconds must be at least 1";
  {
    workload = get "workload";
    seed = int "seed";
    seconds = float_of_int seconds;
    trace =
      (match get "trace" with
      | "0" -> false
      | "1" -> true
      | _ -> die "--trace wants 0 or 1");
  }

let now = Unix.gettimeofday

(* -- the run directory ---------------------------------------------------- *)

(* Everything a run writes (table caches, sockets, the daemon's log)
   lives under one relative directory, removed when the run ends.
   Relative paths keep Unix socket names short wherever the checkout
   sits. *)
let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let run_dir =
  lazy
    (let root = ".ledger_run" in
     (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     let d = Filename.concat root (string_of_int (Unix.getpid ())) in
     rm_rf d;
     Unix.mkdir d 0o755;
     at_exit (fun () ->
         rm_rf d;
         (* the shared parent goes once no concurrent run is using it *)
         try Unix.rmdir root with Unix.Unix_error _ -> ());
     d)

let fresh_dir =
  let n = ref 0 in
  fun stem ->
    incr n;
    let d =
      Filename.concat (Lazy.force run_dir) (Fmt.str "%s%d" stem !n)
    in
    Unix.mkdir d 0o755;
    d

let file_kb dir =
  Array.fold_left
    (fun acc f ->
      acc +. (float_of_int (Unix.stat (Filename.concat dir f)).Unix.st_size
              /. 1024.))
    0. (Sys.readdir dir)

(* input_all also reads /proc pseudo-files, whose length reads as 0 *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let peak_rss_mb pid =
  match Stats.vmhwm_kb (read_file (Fmt.str "/proc/%s/status" pid)) with
  | Some kb -> float_of_int kb /. 1024.
  | None -> die "no VmHWM line in /proc/%s/status" pid

(* -- correctness accounting ---------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

(* [check ok what] counts one correctness check; a failing one is
   reported on stderr (the first few verbatim) and fails the run *)
let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= 10 then Fmt.epr "ledger: FAILED %s@." (Lazy.force what)
  end

(* -- the report ----------------------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []

let metric name unit v =
  if not (Float.is_finite v) then die "metric %s is not a number" name;
  metrics := (name, v, unit) :: !metrics

let say fmt = Fmt.pr (fmt ^^ "@.")

(* A tail percentile is printed with its sample count, and only when
   ten samples lie beyond it; a run too short for that fails instead of
   reporting a number that one outlier decides. *)
let percentile_metric name ~unit samples q =
  let n = Array.length samples in
  match Stats.percentile samples q with
  | Some v ->
    say "  %-28s %12.4f %-6s (n=%d, %d beyond)" name v unit n
      (Stats.beyond ~n q);
    metric name unit v
  | None ->
    die "%s: only %d samples, too few to put ten beyond the %g quantile" name n
      q

(* Per-layer metrics of one process only.  Every workload reports every
   metric; a workload that never enters a layer reports it as 0 and says
   why in its layer lines. *)
let serve_only_layers =
  [
    ("client.connect_ms_p50", "ms"); ("client.write_ms_p50", "ms");
    ("client.await_ms_p50", "ms"); ("server.wire_ms_p50", "ms");
    ("server.queue_wait_ms_p50", "ms"); ("server.queue_wait_ms_p99", "ms");
    ("server.request_ms_p50", "ms"); ("server.request_ms_p99", "ms");
    ("server.frontend_ms", "ms/req"); ("server.transform_ms", "ms/req");
    ("server.match_ms", "ms/req"); ("server.regalloc_ms", "ms/req");
    ("server.pcc_ms", "ms/req"); ("server.other_ms", "ms/req");
    ("server.cpu_s", "s/1000req"); ("server.retry_after", "count");
    ("server.error_responses", "count");
  ]

(* Per-layer metrics the compile workloads measure in process; serve-mixed
   runs these layers inside ggccd and reports them as server.* instead. *)
let compile_only_layers =
  [
    ("tablegen.build_s", "s"); ("specialize.build_s", "s");
    ("frontc.parse_s", "s/pass"); ("frontc.sema_s", "s/pass");
    ("transform.s", "s/pass"); ("match.s", "s/pass"); ("match.trees", "count");
    ("match.us_per_tree", "us"); ("match.reductions_per_tree", "count");
    ("match.codegen_share", "fraction"); ("matcher.probe_hot_frac", "fraction");
    ("codegen.render_s", "s/pass"); ("codegen.insns", "count");
    ("regalloc.s", "s/pass"); ("regalloc.codegen_share", "fraction");
    ("regalloc.spills", "count"); ("regalloc.reloads", "count");
    ("pcc.s", "s/pass");
  ]

(* The (name, unit) pairs BENCHMARK.json declares for this mode, when the
   run starts at the root that holds it. *)
let declared ~trace =
  let module Json = Gg_profile.Json in
  match Json.parse_file "BENCHMARK.json" with
  | exception (Sys_error _ | Json.Parse_error _) -> None
  | j ->
    Option.map
      (List.filter_map (fun m ->
           match
             ( Option.bind (Json.member "name" m) Json.to_str,
               Option.bind (Json.member "unit" m) Json.to_str )
           with
           | Some n, Some u -> Some (n, u)
           | _ -> None))
      (Option.bind
         (Json.member (if trace then "per_layer" else "end_to_end") j)
         Json.to_list)

let finish (a : args) =
  let ms = List.rev !metrics in
  (* the report and the declared contract cannot drift apart *)
  Option.iter
    (fun want ->
      let got = List.sort compare (List.map (fun (n, _, u) -> (n, u)) ms) in
      if got <> List.sort compare want then
        die "metrics differ from BENCHMARK.json: reported %s"
          (String.concat ", " (List.map (fun (n, u) -> n ^ " " ^ u) got)))
    (declared ~trace:a.trace);
  say "-- metrics";
  List.iter (fun (n, v, u) -> say "  %-28s %14.6g %s" n v u) ms;
  say "correctness: %d of %d checks failed" !failed !attempted;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
         ms)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) (max 1 !attempted) !failed body;
  flush stdout;
  exit (if !failed = 0 && !attempted > 0 then 0 else 1)
