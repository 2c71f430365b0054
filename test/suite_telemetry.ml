(* The telemetry subsystem: trace spans (balance, JSON well-formedness,
   agreement with the Profile timers), metric histograms (identities
   against the Profile counters, exactness and reset under a Parallel
   pool), instruction provenance (--explain), and the report guards. *)

module Tree = Gg_ir.Tree
module Insn = Gg_ir.Insn
module Driver = Gg_codegen.Driver
module Semantics = Gg_codegen.Semantics
module Sema = Gg_frontc.Sema
module Corpus = Gg_frontc.Corpus
module Profile = Gg_profile.Profile
module Trace = Gg_profile.Trace
module Metrics = Gg_profile.Metrics

let tables = Driver.default_tables

(* each fixed program declares its own globals/main, so lower them
   separately and compile them in sequence *)
let corpus_programs =
  lazy (List.map (fun (_, src) -> Sema.compile src) Corpus.fixed_programs)

let all_off () =
  Profile.enabled := false;
  Profile.provenance_enabled := false;
  Trace.enabled := false;
  Metrics.enabled := false;
  Profile.reset ();
  Trace.reset ();
  Metrics.reset ()

let compile ?(jobs = 1) prog =
  Driver.compile_program ~tables:(Lazy.force tables) ~jobs prog

let compile_corpus ?(jobs = 1) () =
  List.map (fun p -> compile ~jobs p) (Lazy.force corpus_programs)

(* -- a minimal JSON validator ------------------------------------------------ *)

exception Bad_json of string

let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Bad_json (Fmt.str "%s at offset %d" m !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Fmt.str "expected %c" c)
  in
  let literal w =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then pos := !pos + String.length w
    else fail ("expected " ^ w)
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done
        | _ -> fail "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let number () =
    let digits () =
      let d = ref 0 in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          incr d;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if !d = 0 then fail "expected digit"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
    | Some '.' ->
      advance ();
      digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else
        let rec members () =
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else
        let rec elements () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ()
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected a value");
    skip_ws ()
  in
  value ();
  if !pos <> n then fail "trailing garbage"

let check_json name s =
  match validate_json s with
  | () -> ()
  | exception Bad_json m -> Alcotest.failf "%s: invalid JSON: %s" name m

(* -- satellite (a): report never divides by a zero timed total --------------- *)

let test_report_no_nan_on_empty () =
  all_off ();
  Profile.enabled := true;
  (* counters but no timers: the share column must print 0%, not nan *)
  let c = Profile.counters () in
  c.Profile.matcher_runs <- c.Profile.matcher_runs + 1;
  let text = Fmt.str "%a" Profile.report () in
  all_off ();
  Alcotest.(check bool) "report is non-empty" true (String.length text > 0);
  let lower = String.lowercase_ascii text in
  let contains sub =
    let ls = String.length sub and ln = String.length lower in
    let rec go i = i + ls <= ln && (String.sub lower i ls = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no nan in report" false (contains "nan");
  Alcotest.(check bool) "no inf in report" false (contains "inf")

(* -- trace spans ------------------------------------------------------------- *)

let with_trace ?(jobs = 4) () =
  all_off ();
  Profile.enabled := true;
  Trace.enabled := true;
  ignore (compile_corpus ~jobs ())

let test_trace_json_well_formed () =
  with_trace ();
  let doc = Trace.export () in
  all_off ();
  check_json "trace export" doc

let test_trace_spans_balanced () =
  with_trace ();
  let events = Trace.events () in
  all_off ();
  Alcotest.(check bool) "events recorded" true (events <> []);
  (* per track, B/E edges nest like parentheses and end balanced *)
  let tracks = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      let stack =
        match Hashtbl.find_opt tracks e.Trace.ev_track with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.add tracks e.Trace.ev_track s;
          s
      in
      match e.Trace.ev_ph with
      | Trace.B -> stack := e.Trace.ev_name :: !stack
      | Trace.E -> (
        match !stack with
        | top :: rest when top = e.Trace.ev_name -> stack := rest
        | top :: _ ->
          Alcotest.failf "track %d: end of %S inside %S" e.Trace.ev_track
            e.Trace.ev_name top
        | [] ->
          Alcotest.failf "track %d: end of %S with no open span"
            e.Trace.ev_track e.Trace.ev_name))
    events;
  Hashtbl.iter
    (fun track stack ->
      if !stack <> [] then
        Alcotest.failf "track %d: %d unclosed span(s)" track
          (List.length !stack))
    tracks;
  (* timestamps are monotone within each track *)
  let last = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      (match Hashtbl.find_opt last e.Trace.ev_track with
      | Some t when e.Trace.ev_ts < t -. 1e-6 ->
        Alcotest.failf "track %d: time goes backwards" e.Trace.ev_track
      | _ -> ());
      Hashtbl.replace last e.Trace.ev_track e.Trace.ev_ts)
    events

(* total seconds spent in spans named [name]; self-nested spans would
   double-count, but the instrumented phases never self-nest *)
let span_seconds name =
  let by_track = Hashtbl.create 8 in
  List.fold_left
    (fun total (e : Trace.event) ->
      if e.Trace.ev_name <> name then total
      else
        match e.Trace.ev_ph with
        | Trace.B ->
          Hashtbl.replace by_track e.Trace.ev_track e.Trace.ev_ts;
          total
        | Trace.E -> (
          match Hashtbl.find_opt by_track e.Trace.ev_track with
          | Some t0 ->
            Hashtbl.remove by_track e.Trace.ev_track;
            total +. ((e.Trace.ev_ts -. t0) /. 1e6)
          | None -> total))
    0. (Trace.events ())

let test_trace_agrees_with_profile () =
  with_trace ();
  let agree name =
    let timer = Profile.seconds name in
    let spans = span_seconds name in
    Alcotest.(check bool) (name ^ " was timed") true (timer > 0.);
    (* Trace.phase feeds the aggregate and the span edges from the same
       clock reads, so the totals differ only by float summation order *)
    if Float.abs (timer -. spans) > 1e-6 then
      Alcotest.failf "%s: timer %.9fs vs spans %.9fs" name timer spans
  in
  agree "phase2.match";
  agree "phase1.transform";
  all_off ()

(* -- metric histograms ------------------------------------------------------- *)

let with_metrics ?(jobs = 1) () =
  all_off ();
  Metrics.enabled := true;
  ignore (compile_corpus ~jobs ())

let test_histograms_match_counters () =
  with_metrics ();
  let totals = Profile.totals () in
  let funcs =
    List.fold_left
      (fun a p -> a + List.length p.Tree.funcs)
      0
      (Lazy.force corpus_programs)
  in
  let reds_count = Metrics.count Metrics.tree_reductions in
  let reds_sum = Metrics.sum Metrics.tree_reductions in
  let match_count = Metrics.count Metrics.tree_match_us in
  let hw_count = Metrics.count Metrics.stack_high_water in
  let ipf_count = Metrics.count Metrics.insns_per_func in
  all_off ();
  Alcotest.(check int)
    "tree_reductions count = matcher runs" totals.Profile.matcher_runs
    reds_count;
  Alcotest.(check int)
    "tree_reductions sum = total reduces" totals.Profile.reduces reds_sum;
  Alcotest.(check int)
    "tree_match_us count = matcher runs" totals.Profile.matcher_runs
    match_count;
  Alcotest.(check int)
    "stack_high_water count = matcher runs" totals.Profile.matcher_runs
    hw_count;
  Alcotest.(check int) "insns_per_func count = functions" funcs ipf_count

let test_buckets_sum_to_count () =
  with_metrics ();
  let hs = Metrics.all () in
  let rows =
    List.map
      (fun h ->
        ( Metrics.name h,
          Metrics.count h,
          List.fold_left (fun a (_, c) -> a + c) 0 (Metrics.buckets h) ))
      hs
  in
  all_off ();
  Alcotest.(check bool) "histograms registered" true (List.length rows >= 4);
  List.iter
    (fun (name, count, bucket_sum) ->
      Alcotest.(check int) (name ^ ": buckets sum to count") count bucket_sum)
    rows

let test_metrics_exact_under_parallelism () =
  let snapshot jobs =
    all_off ();
    Metrics.enabled := true;
    ignore (compile_corpus ~jobs ());
    let r =
      List.map
        (fun h -> (Metrics.name h, Metrics.count h, Metrics.buckets h))
        [ Metrics.tree_reductions; Metrics.stack_high_water;
          Metrics.insns_per_func ]
    in
    all_off ();
    r
  in
  (* tree_match_us is wall time, hence not deterministic across -j: the
     deterministic histograms must merge to identical shards *)
  let s1 = snapshot 1 in
  let s4 = snapshot 4 in
  let s8 = snapshot 8 in
  Alcotest.(check bool) "j4 histograms = j1" true (s4 = s1);
  Alcotest.(check bool) "j8 histograms = j1" true (s8 = s1)

let test_metrics_reset () =
  with_metrics ();
  Metrics.reset ();
  let counts = List.map Metrics.count (Metrics.all ()) in
  let named = Metrics.named_counters () in
  all_off ();
  List.iter (fun c -> Alcotest.(check int) "count after reset" 0 c) counts;
  Alcotest.(check bool)
    "no live named counters after reset" true
    (List.for_all (fun (_, v) -> v = 0) named)

(* every part of the one store, as plain values: counters, coverage,
   phase aggregates, histograms, named counters, trace events *)
type store = {
  st_counters : (string * int) list;
  st_coverage : (int * int) list;
  st_phases : (string * float * int) list;
  st_histos : (string * int * (int option * int) list) list;
  st_named : (string * int) list;
  st_events : int;
}

let store () =
  {
    st_counters =
      List.filter
        (fun (k, _) -> not (List.mem_assoc k (Metrics.named_counters ())))
        (Profile.counter_list ());
    st_coverage = Profile.production_counts ();
    st_phases = Profile.phases ();
    st_histos =
      List.map
        (fun h -> (Metrics.name h, Metrics.count h, Metrics.buckets h))
        (Metrics.all ());
    st_named = Metrics.named_counters ();
    st_events = List.length (Trace.events ());
  }

(* the ledger resets one view at a time (Trace alone between set-up
   passes, Profile alone around its PCC timing), so each reset must
   clear its own part of the shard and nothing else *)
let test_resets_stay_scoped () =
  let filled () =
    all_off ();
    Profile.enabled := true;
    Trace.enabled := true;
    Metrics.enabled := true;
    Profile.coverage_enabled := true;
    ignore (compile_corpus ~jobs:4 ());
    Metrics.incr "test.reset_scope";
    Profile.coverage_enabled := false;
    let before = store () in
    Alcotest.(check bool) "everything recorded" true
      (before.st_coverage <> [] && before.st_phases <> []
      && before.st_events > 0
      && List.assoc "matcher.runs" before.st_counters > 0
      && List.mem_assoc "test.reset_scope" before.st_named);
    before
  in
  let same what a b = Alcotest.(check bool) what true (a = b) in
  Fun.protect ~finally:all_off @@ fun () ->
  let before = filled () in
  Trace.reset ();
  let after = store () in
  Alcotest.(check int) "Trace.reset drops events" 0 after.st_events;
  same "Trace.reset keeps counters" before.st_counters after.st_counters;
  same "Trace.reset keeps coverage" before.st_coverage after.st_coverage;
  same "Trace.reset keeps phases" before.st_phases after.st_phases;
  same "Trace.reset keeps histograms" before.st_histos after.st_histos;
  same "Trace.reset keeps named counters" before.st_named after.st_named;
  let before = filled () in
  Profile.reset ();
  let after = store () in
  Alcotest.(check int) "Profile.reset zeroes matcher.runs" 0
    (List.assoc "matcher.runs" after.st_counters);
  same "Profile.reset drops coverage" [] after.st_coverage;
  same "Profile.reset drops phases" [] after.st_phases;
  Alcotest.(check int) "Profile.reset keeps events" before.st_events
    after.st_events;
  same "Profile.reset keeps histograms" before.st_histos after.st_histos;
  same "Profile.reset keeps named counters" before.st_named after.st_named;
  let before = filled () in
  Metrics.reset ();
  let after = store () in
  Alcotest.(check bool) "Metrics.reset zeroes histograms" true
    (List.for_all (fun (_, n, _) -> n = 0) after.st_histos);
  same "Metrics.reset drops named counters" [] after.st_named;
  same "Metrics.reset keeps counters" before.st_counters after.st_counters;
  same "Metrics.reset keeps phases" before.st_phases after.st_phases;
  same "Metrics.reset keeps coverage" before.st_coverage after.st_coverage;
  Alcotest.(check int) "Metrics.reset keeps events" before.st_events
    after.st_events

let test_metrics_json_well_formed () =
  with_metrics ();
  Profile.enabled := true;
  let doc = Metrics.to_json () in
  all_off ();
  check_json "metrics sidecar" doc;
  (* the gc object holds the counts of the last sample_gc: they move
     with a sample, never between two renderings *)
  let gc () =
    let j = Gg_profile.Json.parse (Metrics.to_json ()) in
    let count k =
      match
        Option.bind (Gg_profile.Json.member "gc" j) (fun g ->
            Option.bind (Gg_profile.Json.member k g) Gg_profile.Json.to_int)
      with
      | Some n -> n
      | None -> Alcotest.failf "gc.%s missing from the sidecar" k
    in
    (count "minor_collections", count "major_collections")
  in
  Metrics.sample_gc ();
  let minor0, major0 = gc () in
  Gc.full_major ();
  Alcotest.(check (pair int int)) "counts stand still until sampled"
    (minor0, major0) (gc ());
  Metrics.sample_gc ();
  let minor1, major1 = gc () in
  Alcotest.(check bool)
    (Fmt.str "a full major moves both counts (%d,%d -> %d,%d)" minor0 major0
       minor1 major1)
    true
    (minor0 >= 0 && minor1 > minor0 && major1 > major0)

(* -- quantiles, snapshots, expositions (the ops plane's read API) ------------ *)

module Json = Gg_profile.Json

let test_quantile_properties () =
  all_off ();
  Metrics.enabled := true;
  let h = Metrics.queue_wait_us in
  Alcotest.(check (float 0.)) "empty histogram quantile is 0" 0.
    (Metrics.quantile h 0.99);
  for v = 1 to 1000 do
    Metrics.observe h v
  done;
  let q50 = Metrics.quantile h 0.50
  and q90 = Metrics.quantile h 0.90
  and q99 = Metrics.quantile h 0.99
  and q100 = Metrics.quantile h 1.0 in
  all_off ();
  Alcotest.(check bool) "quantiles are positive" true (q50 > 0.);
  Alcotest.(check bool) "quantiles are monotone in q" true
    (q50 <= q90 && q90 <= q99 && q99 <= q100);
  Alcotest.(check bool) "no quantile exceeds the observed max" true
    (q100 <= 1000.);
  (* uniform 1..1000: linear interpolation inside fixed buckets keeps
     the estimates within a coarse band of the true quantiles *)
  Alcotest.(check bool)
    (Fmt.str "p50 %.1f within [250, 750]" q50)
    true
    (q50 >= 250. && q50 <= 750.);
  Alcotest.(check bool) (Fmt.str "p99 %.1f >= p50" q99) true (q99 >= q50)

let test_quantile_deterministic () =
  (* same observations -> byte-identical quantiles, whether read live
     or at shutdown: this is what lets the admin stats document match
     the sidecar exactly *)
  all_off ();
  Metrics.enabled := true;
  List.iter (Metrics.observe Metrics.request_latency_us)
    [ 3; 14; 159; 2653; 58979; 323846; 2643383 ];
  let a = Metrics.quantile Metrics.request_latency_us 0.99 in
  let b = Metrics.quantile Metrics.request_latency_us 0.99 in
  all_off ();
  Alcotest.(check (float 0.)) "two reads agree exactly" a b

let test_snapshot_exact_under_parallelism () =
  (* the deterministic instruments must snapshot identically at -j1 and
     -j4 once the domains have joined — same counts, same buckets, same
     quantiles *)
  let deterministic =
    [
      "matcher.reductions_per_tree";
      "matcher.stack_high_water";
      "codegen.insns_per_func";
    ]
  in
  let take jobs =
    all_off ();
    Metrics.enabled := true;
    Profile.enabled := true;
    ignore (compile_corpus ~jobs ());
    let snap = Metrics.snapshot () in
    all_off ();
    ( List.filter
        (fun (k, _) -> String.length k > 8 && String.sub k 0 8 = "matcher.")
        snap.Metrics.v_counters,
      List.filter
        (fun hv -> List.mem hv.Metrics.hv_name deterministic)
        snap.Metrics.v_histograms )
  in
  let c1, h1 = take 1 in
  let c4, h4 = take 4 in
  Alcotest.(check bool) "matcher counters equal at -j4" true (c1 = c4);
  Alcotest.(check int) "all deterministic histograms found" 3 (List.length h1);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "name" a.Metrics.hv_name b.Metrics.hv_name;
      Alcotest.(check int) (a.Metrics.hv_name ^ " count") a.Metrics.hv_count
        b.Metrics.hv_count;
      Alcotest.(check bool) (a.Metrics.hv_name ^ " buckets") true
        (a.Metrics.hv_buckets = b.Metrics.hv_buckets);
      Alcotest.(check (float 0.)) (a.Metrics.hv_name ^ " p50") a.Metrics.hv_p50
        b.Metrics.hv_p50;
      Alcotest.(check (float 0.)) (a.Metrics.hv_name ^ " p99") a.Metrics.hv_p99
        b.Metrics.hv_p99)
    h1 h4

let test_snapshot_safe_under_concurrent_observers () =
  (* snapshots taken while 4 domains are still observing: never a
     crash, and successive snapshots are monotone (shard counters only
     grow) *)
  all_off ();
  Metrics.enabled := true;
  let stop = Atomic.make false in
  let pool =
    Gg_codegen.Parallel.spawn_pool ~domains:4 (fun _ ->
        while not (Atomic.get stop) do
          Metrics.observe Metrics.queue_wait_us 17;
          Metrics.incr "concurrent.test"
        done)
  in
  let count hv_name snap =
    match
      List.find_opt
        (fun hv -> hv.Metrics.hv_name = hv_name)
        snap.Metrics.v_histograms
    with
    | Some hv -> hv.Metrics.hv_count
    | None -> Alcotest.failf "histogram %s missing from snapshot" hv_name
  in
  let last = ref 0 in
  for _ = 1 to 50 do
    let snap = Metrics.snapshot () in
    let c = count "server.queue_wait_us" snap in
    if c < !last then
      Alcotest.failf "snapshot went backwards: %d after %d" c !last;
    last := c
  done;
  Atomic.set stop true;
  Gg_codegen.Parallel.join_pool pool;
  (* quiescent now: the final snapshot is exact and internally
     consistent — buckets sum to the count, the named counter matches *)
  let snap = Metrics.snapshot () in
  let hv =
    List.find
      (fun hv -> hv.Metrics.hv_name = "server.queue_wait_us")
      snap.Metrics.v_histograms
  in
  all_off ();
  Alcotest.(check int) "buckets sum to count" hv.Metrics.hv_count
    (List.fold_left (fun a (_, c) -> a + c) 0 hv.Metrics.hv_buckets);
  Alcotest.(check bool) "the named counter landed" true
    (List.assoc_opt "concurrent.test" snap.Metrics.v_counters = Some hv.Metrics.hv_count)

let test_json_sidecar_has_quantiles () =
  with_metrics ();
  let doc = Metrics.to_json () in
  all_off ();
  let j = Json.parse doc in
  let histos =
    Option.value ~default:[]
      (Option.bind (Json.member "histograms" j) Json.to_list)
  in
  Alcotest.(check bool) "histograms present" true (histos <> []);
  List.iter
    (fun h ->
      let name =
        Option.value ~default:"?" (Option.bind (Json.member "name" h) Json.to_str)
      in
      let p50 = Option.bind (Json.member "p50" h) Json.to_float in
      let p99 = Option.bind (Json.member "p99" h) Json.to_float in
      match (p50, p99) with
      | Some p50, Some p99 ->
        Alcotest.(check bool) (name ^ ": p50 <= p99") true (p50 <= p99)
      | _ -> Alcotest.failf "%s: missing p50/p99" name)
    histos

let test_prometheus_exposition () =
  with_metrics ();
  let doc = Metrics.to_prometheus () in
  all_off ();
  let lines = String.split_on_char '\n' doc in
  Alcotest.(check bool) "counters are typed" true
    (List.mem "# TYPE ggcg_matcher_runs counter" lines);
  Alcotest.(check bool) "histograms are typed" true
    (List.mem "# TYPE ggcg_matcher_reductions_per_tree histogram" lines);
  (* per histogram: cumulative buckets end at +Inf == _count *)
  let value_of prefix =
    List.filter_map
      (fun l ->
        if
          String.length l > String.length prefix
          && String.sub l 0 (String.length prefix) = prefix
        then
          int_of_string_opt
            (String.trim
               (String.sub l (String.length prefix)
                  (String.length l - String.length prefix)))
        else None)
      lines
  in
  (match value_of "ggcg_matcher_reductions_per_tree_bucket{le=\"+Inf\"} " with
  | [ inf ] -> (
    match value_of "ggcg_matcher_reductions_per_tree_count " with
    | [ count ] ->
      Alcotest.(check int) "+Inf bucket equals _count" count inf
    | other -> Alcotest.failf "%d _count lines" (List.length other))
  | other -> Alcotest.failf "%d +Inf bucket lines" (List.length other));
  (* cumulative bucket counts never decrease *)
  let buckets =
    List.filter_map
      (fun l ->
        let p = "ggcg_matcher_reductions_per_tree_bucket{le=" in
        if String.length l > String.length p && String.sub l 0 (String.length p) = p
        then
          match String.rindex_opt l ' ' with
          | Some i ->
            int_of_string_opt
              (String.sub l (i + 1) (String.length l - i - 1))
          | None -> None
        else None)
      lines
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative buckets are monotone" true (monotone buckets)

let test_atomic_write_leaves_no_tmp () =
  all_off ();
  Metrics.enabled := true;
  Profile.enabled := true;
  Trace.enabled := true;
  ignore (Trace.span "atomic" (fun () -> ()));
  let recorder = Gg_server.Flight.create 4 in
  let dir = Filename.get_temp_dir_name () in
  let path what =
    Filename.concat dir (Fmt.str "ggcg-test-%s-%d.json" what (Unix.getpid ()))
  in
  (* every telemetry document goes through the one tmp+rename writer *)
  let docs =
    [
      ("metrics", Metrics.write_json_atomic);
      ("trace", Trace.write);
      ("flight", Gg_server.Flight.dump recorder);
    ]
  in
  Fun.protect ~finally:(fun () ->
      all_off ();
      List.iter
        (fun (what, _) -> try Sys.remove (path what) with Sys_error _ -> ())
        docs)
  @@ fun () ->
  List.iter
    (fun (what, write) ->
      let file = path what in
      write file;
      check_json what (In_channel.with_open_text file In_channel.input_all);
      (* the temp sibling is renamed away, never left behind *)
      let base = Filename.basename file in
      let leftovers =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f ->
               String.length f > String.length base
               && String.sub f 0 (String.length base) = base)
      in
      Alcotest.(check (list string)) (what ^ ": no tmp leftovers") [] leftovers)
    docs

(* -- the Json reader the ops tools are built on ------------------------------- *)

let test_json_parser_roundtrips () =
  let cases =
    [
      "null";
      "true";
      "[1,2.5,-3,\"x\"]";
      "{\"a\":{\"b\":[]},\"c\":\"\\u0041\\n\"}";
      "{\"nested\":[{\"deep\":[[[1]]]}]}";
    ]
  in
  List.iter
    (fun s ->
      let j = Json.parse s in
      let j' = Json.parse (Json.to_string j) in
      Alcotest.(check bool) (s ^ " survives print/reparse") true (j = j'))
    cases;
  (* member order and accessors *)
  let j = Json.parse "{\"b\": 2, \"a\": 1}" in
  Alcotest.(check (option int)) "member lookup" (Some 1)
    (Option.bind (Json.member "a" j) Json.to_int);
  Alcotest.(check string) "order preserved" "{\"b\":2,\"a\":1}" (Json.to_string j)

let test_json_parser_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Json.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]

(* -- instruction provenance (--explain) -------------------------------------- *)

let test_explain_provenance () =
  all_off ();
  Profile.provenance_enabled := true;
  let outs = compile_corpus () in
  Profile.provenance_enabled := false;
  List.iter
    (fun (cf : Driver.compiled_func) ->
      Alcotest.(check int)
        (cf.Driver.cf_name ^ ": provenance parallel to instructions")
        (List.length cf.Driver.cf_insns)
        (List.length cf.Driver.cf_prov);
      List.iter2
        (fun insn (_line, pids, _mark) ->
          match insn with
          | Insn.Insn _ ->
            if pids = [] then
              Alcotest.failf "%s: instruction %s carries no production ids"
                cf.Driver.cf_name (Insn.assembly insn)
          | _ -> ())
        cf.Driver.cf_insns cf.Driver.cf_prov)
    (List.concat_map (fun o -> o.Driver.funcs) outs);
  (* and the rendering carries the annotations *)
  let listing =
    String.concat "" (List.map (Driver.render_explained (Lazy.force tables)) outs)
  in
  let contains sub =
    let ls = String.length sub and ln = String.length listing in
    let rec go i =
      i + ls <= ln && (String.sub listing i ls = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "listing has provenance comments" true
    (contains "\t# L")

let test_provenance_off_is_empty () =
  all_off ();
  let outs = compile_corpus () in
  List.iter
    (fun (cf : Driver.compiled_func) ->
      Alcotest.(check int)
        (cf.Driver.cf_name ^ ": no provenance when disabled")
        0
        (List.length cf.Driver.cf_prov))
    (List.concat_map (fun o -> o.Driver.funcs) outs)

(* -- assembly parity --------------------------------------------------------- *)

let test_assembly_unchanged_by_telemetry () =
  all_off ();
  let asm outs = String.concat "" (List.map (fun o -> o.Driver.assembly) outs) in
  let plain = asm (compile_corpus ()) in
  Profile.enabled := true;
  Trace.enabled := true;
  Metrics.enabled := true;
  Profile.provenance_enabled := true;
  let instrumented = asm (compile_corpus ~jobs:4 ()) in
  all_off ();
  Profile.provenance_enabled := false;
  Alcotest.(check string)
    "telemetry does not change the code" plain instrumented

(* -- production heat --------------------------------------------------------- *)

(* `mdgtool heat` and [Targets.heat_profile] (the profiled tables'
   input, and the exact report's fixed-corpus coverage) must count over
   the same corpus: run the real binary and compare its production
   count with the profile's distinct ids, per target *)
let test_mdgtool_heat_matches_profile () =
  let mdgtool =
    (* tests run from _build/default/test; the tool sits next door *)
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "mdgtool.exe"))
  in
  List.iter
    (fun target ->
      let name = Gg_targets.Targets.name target in
      let cmd =
        Fmt.str "%s heat --target %s --top 0" (Filename.quote mdgtool) name
      in
      let ic = Unix.open_process_in cmd in
      let lines = String.split_on_char '\n' (In_channel.input_all ic) in
      if Unix.close_process_in ic <> Unix.WEXITED 0 then
        Alcotest.failf "%s failed" cmd;
      let fired =
        match
          List.find_map
            (fun l -> Scanf.sscanf_opt l "productions fired: %d of" Fun.id)
            lines
        with
        | Some n -> n
        | None -> Alcotest.failf "%s: no \"productions fired\" line" cmd
      in
      let profile = Gg_targets.Targets.heat_profile target in
      Alcotest.(check int)
        (name ^ ": mdgtool heat = heat_profile")
        (List.length profile.Gg_tablegen.Heat.counts)
        fired)
    Gg_targets.Targets.all

(* -- the command-line wrapper ------------------------------------------------ *)

let count_lines prefix text =
  List.length
    (List.filter
       (fun l ->
         String.length l >= String.length prefix
         && String.sub l 0 (String.length prefix) = prefix)
       (String.split_on_char '\n' text))

(* --profile and --metrics together print the counters table once; the
   metrics sidecar is written even when the wrapped run raises (ggcc and
   ggfuzz share this wrapper) *)
let test_telemetry_wrapper () =
  all_off ();
  let out = Filename.temp_file "ggcg-wrapper" ".json" in
  Sys.remove out;
  Fun.protect ~finally:(fun () ->
      all_off ();
      try Sys.remove out with Sys_error _ -> ())
  @@ fun () ->
  (match
     Gg_profile.Telemetry.with_telemetry ~metrics_out:out (fun () ->
         ignore (compile_corpus () : Driver.output list);
         failwith "boom")
   with
  | () -> Alcotest.fail "the wrapped run returned"
  | exception Failure m -> Alcotest.(check string) "the failure passes" "boom" m);
  Alcotest.(check bool) "sidecar written on raise" true (Sys.file_exists out);
  let doc = In_channel.with_open_text out In_channel.input_all in
  (match Gg_profile.Json.parse doc with
  | _ -> ()
  | exception Gg_profile.Json.Parse_error m -> Alcotest.failf "sidecar: %s" m);
  List.iter
    (fun (profile, metrics, want) ->
      let text =
        Fmt.str "%a" (Gg_profile.Telemetry.report ~profile ~metrics) ()
      in
      Alcotest.(check int)
        (Printf.sprintf "counters tables (profile %b, metrics %b)" profile
           metrics)
        want (count_lines "counters:" text))
    [ (true, true, 1); (true, false, 1); (false, true, 1); (false, false, 0) ]

let suite =
  [
    Alcotest.test_case "profile report: 0%%, not nan, on empty timers" `Quick
      test_report_no_nan_on_empty;
    Alcotest.test_case "trace export is well-formed JSON" `Quick
      test_trace_json_well_formed;
    Alcotest.test_case "trace spans balance and nest per track" `Quick
      test_trace_spans_balanced;
    Alcotest.test_case "trace span durations agree with Profile.seconds"
      `Quick test_trace_agrees_with_profile;
    Alcotest.test_case "histogram counts/sums match Profile counters" `Quick
      test_histograms_match_counters;
    Alcotest.test_case "histogram buckets sum to count" `Quick
      test_buckets_sum_to_count;
    Alcotest.test_case "histograms exact under -j" `Quick
      test_metrics_exact_under_parallelism;
    Alcotest.test_case "Metrics.reset clears every shard" `Quick
      test_metrics_reset;
    Alcotest.test_case "resets stay scoped under one shard" `Quick
      test_resets_stay_scoped;
    Alcotest.test_case "metrics sidecar is well-formed JSON" `Quick
      test_metrics_json_well_formed;
    Alcotest.test_case "quantile: empty, monotone, bounded" `Quick
      test_quantile_properties;
    Alcotest.test_case "quantile estimates are deterministic" `Quick
      test_quantile_deterministic;
    Alcotest.test_case "Metrics.snapshot exact at -j4" `Quick
      test_snapshot_exact_under_parallelism;
    Alcotest.test_case "Metrics.snapshot safe under concurrent observers"
      `Quick test_snapshot_safe_under_concurrent_observers;
    Alcotest.test_case "metrics sidecar carries p50/p99" `Quick
      test_json_sidecar_has_quantiles;
    Alcotest.test_case "prometheus exposition is well-formed" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "write_json_atomic leaves no tmp file" `Quick
      test_atomic_write_leaves_no_tmp;
    Alcotest.test_case "Json parser round-trips" `Quick
      test_json_parser_roundtrips;
    Alcotest.test_case "Json parser rejects malformed input" `Quick
      test_json_parser_rejects;
    Alcotest.test_case "--explain: every instruction carries production ids"
      `Quick test_explain_provenance;
    Alcotest.test_case "provenance is empty when disabled" `Quick
      test_provenance_off_is_empty;
    Alcotest.test_case "assembly identical with telemetry on" `Quick
      test_assembly_unchanged_by_telemetry;
    Alcotest.test_case "mdgtool heat counts what heat_profile counts" `Quick
      test_mdgtool_heat_matches_profile;
    Alcotest.test_case
      "wrapper: one counters table, sidecars written when the run raises"
      `Quick test_telemetry_wrapper;
  ]
