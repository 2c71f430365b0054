(* The one telemetry store.  Every domain that records anything gets one
   shard, written without synchronisation from that domain only: the
   hot event counters, the production-coverage table, the phase
   aggregates, the trace events ({!Trace}), the histogram words and the
   named counters ({!Metrics}).  One registry keeps every shard; every
   read merges them, so reports are exact once the writing domains have
   been joined (the {!Gg_codegen.Parallel} pool joins its workers
   before returning).

   False sharing: every block a domain bumps on its hot path ends in
   one cache line (8 words) of dead slack — the counter record in its
   [_pad] fields, the histogram array in its tail — so the live words of
   two domains' shards never share a 64-byte line. *)

type counters = {
  mutable shifts : int;
  mutable reduces : int;
  mutable semantic_choices : int;
  mutable matcher_runs : int;
  mutable rejects : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cold_probes : int;
  mutable _pad0 : int;
  mutable _pad1 : int;
  mutable _pad2 : int;
  mutable _pad3 : int;
  mutable _pad4 : int;
  mutable _pad5 : int;
  mutable _pad6 : int;
  mutable _pad7 : int;
}

let line_words = 8

let fresh_counters () =
  {
    shifts = 0;
    reduces = 0;
    semantic_choices = 0;
    matcher_runs = 0;
    rejects = 0;
    cache_hits = 0;
    cache_misses = 0;
    cold_probes = 0;
    _pad0 = 0;
    _pad1 = 0;
    _pad2 = 0;
    _pad3 = 0;
    _pad4 = 0;
    _pad5 = 0;
    _pad6 = 0;
    _pad7 = 0;
  }

type phase = B | E

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts : float;
  ev_track : int;
  ev_args : (string * string) list;
}

type shard = {
  mutable c : counters;
  fired : (int, int) Hashtbl.t;
  timed : (string, float * int) Hashtbl.t;
  track : int;
  mutable events : event list;
  hist : int array;
  named : (string, int) Hashtbl.t;
}

let registry : shard list ref = ref []
let registry_lock = Mutex.create ()

(* histogram words every shard carries; fixed by {!Metrics}'s
   registrations at module initialisation, before any shard exists *)
let hist_words = ref 0

let reserve_words n =
  Mutex.protect registry_lock (fun () ->
      if !registry <> [] then
        invalid_arg "Profile.reserve_words: a shard already exists";
      let off = !hist_words in
      hist_words := off + n;
      off)

let new_shard () =
  Mutex.protect registry_lock (fun () ->
      let s =
        {
          c = fresh_counters ();
          fired = Hashtbl.create 64;
          timed = Hashtbl.create 16;
          track = (Domain.self () :> int);
          events = [];
          hist = Array.make (!hist_words + line_words) 0;
          named = Hashtbl.create 16;
        }
      in
      registry := s :: !registry;
      s)

let shard_key = Domain.DLS.new_key new_shard
let shard () = Domain.DLS.get shard_key
let counters () = (shard ()).c

(* a snapshot of the registered shards, most recent first; reading a
   shard that another domain is still writing yields momentarily stale
   values, nothing worse, and all reporting paths read after the
   workers are joined *)
let shards () = Mutex.protect registry_lock (fun () -> !registry)

let totals () =
  let t = fresh_counters () in
  List.iter
    (fun { c; _ } ->
      t.shifts <- t.shifts + c.shifts;
      t.reduces <- t.reduces + c.reduces;
      t.semantic_choices <- t.semantic_choices + c.semantic_choices;
      t.matcher_runs <- t.matcher_runs + c.matcher_runs;
      t.rejects <- t.rejects + c.rejects;
      t.cache_hits <- t.cache_hits + c.cache_hits;
      t.cache_misses <- t.cache_misses + c.cache_misses;
      t.cold_probes <- t.cold_probes + c.cold_probes)
    (shards ());
  t

(* one merge for every keyed table a shard holds *)
let merged table add =
  let m = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace m k
            (match Hashtbl.find_opt m k with Some v0 -> add v0 v | None -> v))
        (table s))
    (shards ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) m []

let bump tbl k by =
  Hashtbl.replace tbl k (by + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let enabled = ref false

(* Gates instruction provenance collection (Semantics records, per
   emitted instruction, the productions reduced since the previous
   one).  Lives here so the matcher/semantics layers need no extra
   dependency; read once per Semantics.create. *)
let provenance_enabled = ref false

(* -- production coverage ------------------------------------------------ *)

let coverage_enabled = ref false

let record_production pid =
  if !coverage_enabled then bump (shard ()).fired pid 1

let production_counts () =
  List.sort compare (merged (fun s -> s.fired) ( + ))

let reset_coverage () = List.iter (fun s -> Hashtbl.reset s.fired) (shards ())

(* -- phase aggregates --------------------------------------------------- *)

let add_phase s name dt =
  let total, calls =
    Option.value ~default:(0., 0) (Hashtbl.find_opt s.timed name)
  in
  Hashtbl.replace s.timed name (total +. dt, calls + 1)

let phases () =
  merged (fun s -> s.timed) (fun (t0, c0) (t, c) -> (t0 +. t, c0 + c))
  |> List.map (fun (name, (total, calls)) -> (name, total, calls))
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)

let seconds name =
  List.fold_left
    (fun acc (n, t, _) -> if n = name then t else acc)
    0. (phases ())

let reset () =
  List.iter
    (fun s ->
      s.c <- fresh_counters ();
      Hashtbl.reset s.timed;
      Hashtbl.reset s.fired)
    (shards ())

(* -- counters ----------------------------------------------------------- *)

let named_counters () = List.sort compare (merged (fun s -> s.named) ( + ))

(* the counter list every exposition shares: the base counters first,
   then the named counters, in a stable order *)
let counter_list () =
  let c = totals () in
  [
    ("matcher.runs", c.matcher_runs);
    ("matcher.shifts", c.shifts);
    ("matcher.reduces", c.reduces);
    ("matcher.semantic_choices", c.semantic_choices);
    ("matcher.rejects", c.rejects);
    ("tables.cache_hits", c.cache_hits);
    ("tables.cache_misses", c.cache_misses);
  ]
  @ named_counters ()

let pp_counters ppf () =
  Fmt.pf ppf "counters:@.";
  List.iter (fun (k, v) -> Fmt.pf ppf "  %-28s %10d@." k v) (counter_list ())

let pp_phases ppf () =
  let ps = phases () in
  let total = List.fold_left (fun acc (_, t, _) -> acc +. t) 0. ps in
  if ps <> [] then begin
    Fmt.pf ppf "phase timings:@.";
    List.iter
      (fun (name, t, calls) ->
        Fmt.pf ppf "  %-20s %8.2f ms  %5.1f%%  (%d calls)@." name (t *. 1e3)
          (if total > 0. then 100. *. t /. total else 0.)
          calls)
      ps;
    Fmt.pf ppf "  %-20s %8.2f ms@." "total" (total *. 1e3)
  end

let report ppf () =
  pp_phases ppf ();
  pp_counters ppf ()
