(* Differential tests for profile-guided table layout ([Packed.pack
   ~profile]): for any profile — observed, empty, uniform or
   adversarial — the profiled table must decode cell-for-cell like the
   dense one, drive the matcher to the traces and rejects the reference
   loop produces over the dense one, and
   compile the corpus to byte-identical assembly on both targets.  Plus
   the pinned comb order, the save format, the (grammar, profile)-keyed
   cache entries, stale-format rejection, and the hot/cold probe
   counters. *)

open Gg_grammar
open Gg_tablegen
open Gg_matcher
module Tree = Gg_ir.Tree
module Transform = Gg_transform.Transform
module Grammar_def = Gg_vax.Grammar_def
module Driver = Gg_codegen.Driver
module Backend = Gg_codegen.Backend
module Targets = Gg_targets.Targets
module Sema = Gg_frontc.Sema
module Corpus = Gg_frontc.Corpus
module Profile = Gg_profile.Profile
module Metrics = Gg_profile.Metrics

let vax_grammar = lazy (Grammar_def.grammar Grammar_def.default)
let dense = lazy (Tables.build (Lazy.force vax_grammar))
let packed = lazy (Packed.pack (Lazy.force dense))

let null_cb : unit Matcher.callbacks =
  Matcher.callbacks
    ~on_shift:(fun _ -> ())
    ~on_reduce:(fun _ _ -> ())
    ~choose:(fun _ _ -> 0)
    ()

let stmt_trees prog =
  List.concat_map
    (fun (f : Tree.func) ->
      let tr = Transform.run f in
      List.filter_map
        (function Tree.Stree t -> Some t | _ -> None)
        tr.Transform.func.Tree.body)
    prog.Tree.funcs

let corpus_trees =
  lazy
    (List.concat_map
       (fun (_, src) -> stmt_trees (Sema.compile src))
       Corpus.fixed_programs
    @ List.concat_map
        (fun seed ->
          stmt_trees
            (Sema.lower_program
               (Corpus.program ~seed ~functions:2 ~stmts_per_function:8)))
        [ 1; 2; 3 ])

let corpus_tokens =
  lazy
    (List.map
       (fun t -> Gg_ir.Termname.linearize t)
       (Lazy.force corpus_trees))

(* the observed profile: what the corpus itself fires *)
let observed_profile =
  lazy
    (let saved = !Profile.coverage_enabled in
     Profile.coverage_enabled := true;
     Profile.reset_coverage ();
     List.iter
       (fun toks ->
         ignore
           (Matcher_ref.run (Lazy.force dense) null_cb toks
             : unit Matcher.outcome))
       (Lazy.force corpus_tokens);
     let counts = Profile.production_counts () in
     Profile.reset_coverage ();
     Profile.coverage_enabled := saved;
     Heat.of_counts counts)

let specialized profile = Packed.pack ~profile (Lazy.force dense)
let spec_hot = lazy (specialized (Lazy.force observed_profile))

let outcome_of run tokens =
  match run ~trace:true null_cb tokens with
  | (outcome : unit Matcher.outcome) -> Ok outcome.Matcher.trace
  | exception Matcher.Reject e -> Error e

(* the reference loop over the dense tables, and the matcher over a
   profiled layout *)
let dense_outcome =
  outcome_of (fun ~trace -> Matcher_ref.run ~trace (Lazy.force dense))

let spec_outcome spec =
  outcome_of (fun ~trace ->
      Matcher.run ~trace ~grammar:(Lazy.force vax_grammar) spec)

let check_same_traces what spec =
  List.iteri
    (fun i tokens ->
      let d = dense_outcome tokens in
      let s = spec_outcome spec tokens in
      match (d, s) with
      | Ok dt, Ok st ->
        if dt <> st then Alcotest.failf "%s: tree %d: traces differ" what i
      | Error de, Error se ->
        if
          de.Matcher.at <> se.Matcher.at
          || de.Matcher.state <> se.Matcher.state
          || de.Matcher.expected <> se.Matcher.expected
        then Alcotest.failf "%s: tree %d: rejects differ" what i
      | Ok _, Error e ->
        Alcotest.failf "%s: tree %d: specialized rejected (%a)" what i
          Matcher.pp_error e
      | Error _, Ok _ ->
        Alcotest.failf "%s: tree %d: specialized accepted a reject" what i)
    (Lazy.force corpus_tokens)

let test_verify_observed () =
  match Packed.verify (Lazy.force spec_hot) (Lazy.force dense) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify: %s" m

let test_traces_observed () =
  check_same_traces "observed profile" (Lazy.force spec_hot)

let test_traces_empty_profile () =
  (* no heat at all: the degenerate all-hot layout must still be exact *)
  let spec = specialized Heat.empty in
  (match Packed.verify spec (Lazy.force dense) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify(empty): %s" m);
  check_same_traces "empty profile" spec

let test_traces_uniform_profile () =
  let g = Lazy.force vax_grammar in
  let uniform =
    Heat.of_counts (List.init (Grammar.n_productions g) (fun id -> (id, 1)))
  in
  let spec = specialized uniform in
  (match Packed.verify spec (Lazy.force dense) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify(uniform): %s" m);
  check_same_traces "uniform profile" spec

(* specialization must be exact for ANY profile: random ids (including
   ids no grammar has), huge counts, duplicates — the profile may only
   steer layout, never meaning *)
let test_qcheck_adversarial_profiles () =
  let gen =
    QCheck.list_of_size (QCheck.Gen.int_range 0 40)
      (QCheck.pair (QCheck.int_range 0 5000) (QCheck.int_range (-5) 1_000_000))
  in
  let some_trees =
    match Lazy.force corpus_tokens with
    | a :: b :: c :: _ -> [ a; b; c ]
    | ts -> ts
  in
  let prop raw =
    let profile = Heat.of_counts raw in
    let spec = specialized profile in
    (match Packed.verify spec (Lazy.force dense) with
    | Ok () -> ()
    | Error m -> QCheck.Test.fail_reportf "verify: %s" m);
    List.for_all
      (fun tokens -> dense_outcome tokens = spec_outcome spec tokens)
      some_trees
  in
  let test =
    QCheck.Test.make ~name:"adversarial profiles stay exact" ~count:25 gen
      prop
  in
  QCheck.Test.check_exn test

(* dense vs packed vs specialized action traces, plus byte-identical
   assembly, across the fuzz corpus on both targets — the tentpole's
   end-to-end differential *)
let fuzz_seeds = List.init 201 (fun s -> s)

let test_fuzz_assembly_parity () =
  List.iter
    (fun target ->
      let profile = Targets.heat_profile target in
      let baseline = Targets.default_tables target in
      let spec_tables =
        Targets.specialized_tables ~use_cache:false ~profile target
      in
      List.iter
        (fun seed ->
          let prog =
            Sema.lower_program
              (Corpus.program ~seed ~functions:2 ~stmts_per_function:8)
          in
          let asm tables =
            (Driver.compile_program ~tables prog).Driver.assembly
          in
          if asm baseline <> asm spec_tables then
            Alcotest.failf "%s: seed %d: assembly differs"
              (Targets.name target) seed)
        fuzz_seeds)
    Targets.all

let test_spec_bytes_not_larger () =
  (* the resident-footprint gate: specialization may never cost bytes *)
  List.iter
    (fun target ->
      let b = Targets.backend_of target in
      let g = Lazy.force b.Backend.default_grammar in
      let dense = Tables.build g in
      let packed = Packed.pack dense in
      let profile = Targets.heat_profile target in
      let spec = Packed.pack ~profile dense in
      let pb = (Packed.stats packed).Packed.packed_bytes in
      let sb = (Packed.stats spec).Packed.packed_bytes in
      if sb > pb then
        Alcotest.failf "%s: specialized %d bytes > baseline %d bytes"
          (Targets.name target) sb pb)
    Targets.all

let test_stats_shape () =
  let s = Packed.stats (Lazy.force spec_hot) in
  Alcotest.(check bool) "some states hot" true (s.Packed.hot_states > 0);
  Alcotest.(check bool)
    "not every state hot" true
    (s.Packed.hot_states < s.Packed.states);
  Alcotest.(check bool) "cold entries exist" true (s.Packed.cold_entries > 0);
  (* without a profile, or with one carrying no usable heat, every state
     is in the comb and nothing is cold *)
  List.iter
    (fun (what, t) ->
      let s = Packed.stats t in
      Alcotest.(check int) (what ^ ": all states in the comb") s.Packed.states
        s.Packed.hot_states;
      Alcotest.(check int) (what ^ ": no cold entries") 0 s.Packed.cold_entries)
    [
      ("profile-free", Lazy.force packed);
      ("empty profile", specialized Heat.empty);
    ]

let test_probe_counters () =
  let was = !Metrics.enabled in
  Metrics.enabled := true;
  Metrics.reset ();
  let g = Lazy.force vax_grammar and spec = Lazy.force spec_hot in
  List.iter
    (fun tokens ->
      ignore (Matcher.run ~grammar:g spec null_cb tokens : unit Matcher.outcome))
    (Lazy.force corpus_tokens);
  let counters = Metrics.named_counters () in
  Metrics.enabled := was;
  let get n = try List.assoc n counters with Not_found -> 0 in
  let hot = get "matcher.probe_hits_hot" in
  let cold = get "matcher.probe_hits_cold" in
  if hot = 0 then Alcotest.fail "no hot probes recorded";
  (* the profile was collected from this very corpus: the hot partition
     must dominate its own probes *)
  if hot <= cold then
    Alcotest.failf "hot probes (%d) do not dominate cold (%d)" hot cold

let test_heat_canonical () =
  let a = Heat.of_counts [ (3, 5); (1, 2); (3, 1) ] in
  let b = Heat.of_counts [ (1, 2); (3, 6) ] in
  Alcotest.(check string) "digest merges duplicates" (Heat.digest a)
    (Heat.digest b);
  Alcotest.(check int) "total" 8 a.Heat.total;
  let c = Heat.of_counts [ (1, 2); (3, 6); (7, 0); (9, -4); (-1, 3) ] in
  Alcotest.(check string) "non-positive and negative-id entries dropped"
    (Heat.digest a) (Heat.digest c);
  (* round trip through the JSON document *)
  let p = Lazy.force observed_profile in
  let p' = Heat.parse (Heat.to_json_string p) in
  Alcotest.(check string) "json round trip" (Heat.digest p) (Heat.digest p');
  Alcotest.(check string) "byte-deterministic rendering"
    (Heat.to_json_string p)
    (Heat.to_json_string p')

let test_save_load () =
  let g = Lazy.force vax_grammar in
  let spec = Lazy.force spec_hot in
  let path = Filename.temp_file "spec-tables" ".tbl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Packed.save spec path;
  let loaded = Packed.load ~profile:(Lazy.force observed_profile) g path in
  (match Packed.verify loaded (Lazy.force dense) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify after load: %s" m);
  Alcotest.(check (option string))
    "profile digest survives" spec.Packed.profile_digest
    loaded.Packed.profile_digest;
  (* a stale-profile load must be refused when a profile is pinned *)
  (match Packed.load ~profile:Heat.empty g path with
  | _ -> Alcotest.fail "loaded despite profile digest mismatch"
  | exception Failure _ -> ());
  (* and so must profile-free tables *)
  Packed.save (Lazy.force packed) path;
  match Packed.load ~profile:(Lazy.force observed_profile) g path with
  | _ -> Alcotest.fail "loaded profile-free tables as profiled"
  | exception Failure _ -> ()

let with_temp_cache_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "ggcg-spec-test-%d" (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let test_cache_roundtrip () =
  with_temp_cache_dir @@ fun dir ->
  let g = Lazy.force vax_grammar in
  let profile = Lazy.force observed_profile in
  let spec = Lazy.force spec_hot in
  Alcotest.(check bool) "store" true (Cache.store ~dir ~target:"vax" g spec);
  (match Cache.load ~dir ~target:"vax" ~profile g with
  | Some t ->
    Alcotest.(check (option string))
      "profile digest"
      (Some (Heat.digest profile))
      t.Packed.profile_digest
  | None -> Alcotest.fail "cache miss after store");
  (* a different profile, or none, misses: the digest is part of the key *)
  (match Cache.load ~dir ~target:"vax" ~profile:Heat.empty g with
  | Some _ -> Alcotest.fail "hit with the wrong profile"
  | None -> ());
  match Cache.load ~dir ~target:"vax" g with
  | Some _ -> Alcotest.fail "profile-free load hit a profiled entry"
  | None -> ()

let test_cache_listing_and_eviction () =
  with_temp_cache_dir @@ fun dir ->
  let g = Lazy.force vax_grammar in
  let profile = Lazy.force observed_profile in
  let spec = Lazy.force spec_hot in
  let packed = Lazy.force packed in
  ignore (Cache.store ~dir ~target:"vax" g packed : bool);
  ignore (Cache.store ~dir ~target:"vax" g spec : bool);
  (* listing tells profile-free and profiled entries apart *)
  let entries = Cache.list ~dir () in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  let spec_entries =
    List.filter (fun e -> e.Cache.e_profile_digest <> None) entries
  in
  (match spec_entries with
  | [ e ] ->
    Alcotest.(check (option string))
      "profile digest listed"
      (Some (Heat.digest profile))
      e.Cache.e_profile_digest;
    Alcotest.(check bool) "bytes measured" true (e.Cache.e_bytes > 0)
  | _ -> Alcotest.fail "expected exactly one specialized entry");
  let live = [ ("vax", g) ] in
  (* live grammar, no declared profiles: the specialized entry stays *)
  let removed = Cache.clear_stale ~dir live in
  Alcotest.(check int) "nothing stale yet" 0 (List.length removed);
  (* live grammar but a different live profile: evicted *)
  let removed =
    Cache.clear_stale ~dir ~live_profiles:[ Heat.digest Heat.empty ] live
  in
  Alcotest.(check int) "stale profile evicted" 1 (List.length removed);
  (* stale grammar: a fresh specialized entry goes too *)
  ignore (Cache.store ~dir ~target:"vax" g spec : bool);
  let removed = Cache.clear_stale ~dir [] in
  Alcotest.(check int) "stale grammar evicts everything" 2
    (List.length removed)

(* The published split is exact: it equals a count taken by the
   reference loop reading the same profiled layout through a counting
   probe, and the -j1 and -j4 compiles of the fixed corpus publish the
   same split. *)
let test_probe_counters_parallel () =
  let g = Lazy.force vax_grammar in
  let spec = Lazy.force spec_hot in
  let was = !Metrics.enabled in
  let published f =
    Metrics.enabled := true;
    Metrics.reset ();
    f ();
    let counters = Metrics.named_counters () in
    Metrics.enabled := false;
    Metrics.reset ();
    let get n = try List.assoc n counters with Not_found -> 0 in
    ( List.mem_assoc "matcher.probe_hits_hot" counters,
      (get "matcher.probe_hits_hot", get "matcher.probe_hits_cold") )
  in
  let match_corpus p () =
    List.iter
      (fun tokens ->
        ignore (Matcher.run ~grammar:g p null_cb tokens : unit Matcher.outcome))
      (Lazy.force corpus_tokens)
  in
  Metrics.enabled := false;
  let hot = ref 0 and cold = ref 0 in
  List.iter
    (fun tokens ->
      ignore
        (Matcher_ref.run
           ~probe:(fun s a ->
             if spec.Packed.act_base.(s) >= 0 then incr hot else incr cold;
             Packed.action spec s a)
           (Lazy.force dense) null_cb tokens
          : unit Matcher.outcome))
    (Lazy.force corpus_tokens);
  let _, split = published (match_corpus spec) in
  let programs =
    List.map (fun (_, src) -> Sema.compile src) Corpus.fixed_programs
  in
  let compile ~jobs () =
    List.iter
      (fun prog ->
        ignore
          (Driver.compile_program
             ~tables:{ Driver.grammar = g; packed = spec; backend = Backend.vax }
             ~jobs ~oversubscribe:true prog
            : Driver.output))
      programs
  in
  let _, j1 = published (compile ~jobs:1) in
  let _, j4 = published (compile ~jobs:4) in
  (* profile-free tables have no cold partition and publish nothing *)
  let split_free, _ = published (match_corpus (Lazy.force packed)) in
  Metrics.enabled := was;
  if !cold = 0 then Alcotest.fail "the corpus never probed a cold state";
  Alcotest.(check (pair int int)) "matcher equals the probe count" (!hot, !cold)
    split;
  if snd j1 = 0 then Alcotest.fail "the -j1 compiles never probed a cold state";
  Alcotest.(check (pair int int)) "-j4 equals -j1" j1 j4;
  Alcotest.(check bool) "profile-free: no split published" false split_free

(* The auto profile's comb: the same states, in the same hottest-first
   order, as the layout's first profiled release chose, on both
   targets.  A grammar or corpus change that moves it must update the
   pins deliberately. *)
let test_auto_profile_comb_pinned () =
  List.iter
    (fun (target, n_comb, order_md5) ->
      let b = Targets.backend_of target in
      let t = Tables.build (Lazy.force b.Backend.default_grammar) in
      let order =
        Packed.comb_states ~profile:(Targets.heat_profile target) t
      in
      let name = Targets.name target in
      Alcotest.(check int) (name ^ ": comb states") n_comb (List.length order);
      Alcotest.(check string)
        (name ^ ": comb order") order_md5
        (Digest.to_hex
           (Digest.string (String.concat "," (List.map string_of_int order)))))
    [
      (Backend.Vax, 255, "495697870456fa3b1c226420c3edbcf4");
      (Backend.Risc, 97, "ccc909ca82c17551a6564b7228ff97d6");
    ]

(* Files in the older formats (v2: profile-free, v3: the separate
   specialized record) must never be unmarshalled as the current record:
   the cache treats them as misses and overwrites them, and a direct
   load fails cleanly. *)
let test_stale_formats_rebuilt () =
  with_temp_cache_dir @@ fun dir ->
  let g = Lazy.force vax_grammar in
  List.iter
    (fun (magic, profile) ->
      let path = Cache.path ~dir ~target:"vax" ?profile g in
      let oc = open_out_bin path in
      output_string oc magic;
      Marshal.to_channel oc (3, "stale", [| 1; 2; 3 |]) [];
      close_out oc;
      let what = Fmt.str "%s at %s" magic (Filename.basename path) in
      Alcotest.(check bool)
        (what ^ ": cache miss") true
        (Cache.load ~dir ~target:"vax" ?profile g = None);
      (match Packed.load ?profile g path with
      | _ -> Alcotest.failf "%s: loaded" what
      | exception Failure _ -> ());
      let t = Cache.load_or_build ~dir ~target:"vax" ?profile g in
      (match Packed.verify t (Lazy.force dense) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: rebuilt tables: %s" what m);
      let ic = open_in_bin path in
      let head = really_input_string ic (String.length "ggcg-tables-v4") in
      close_in ic;
      Alcotest.(check string) (what ^ ": overwritten") "ggcg-tables-v4" head;
      Alcotest.(check bool)
        (what ^ ": now a hit") true
        (Cache.load ~dir ~target:"vax" ?profile g <> None))
    [
      ("ggcg-tables-v2", None);
      ("ggcg-tables-v3", None);
      ("ggcg-tables-v2", Some (Lazy.force observed_profile));
      ("ggcg-tables-v3", Some (Lazy.force observed_profile));
    ]

let suite =
  [
    Alcotest.test_case "verify: observed profile" `Quick test_verify_observed;
    Alcotest.test_case "traces: observed profile" `Quick test_traces_observed;
    Alcotest.test_case "traces: empty profile" `Quick test_traces_empty_profile;
    Alcotest.test_case "traces: uniform profile" `Quick
      test_traces_uniform_profile;
    Alcotest.test_case "qcheck: adversarial profiles" `Slow
      test_qcheck_adversarial_profiles;
    Alcotest.test_case "fuzz corpus: assembly parity, both targets" `Slow
      test_fuzz_assembly_parity;
    Alcotest.test_case "specialized bytes <= baseline" `Quick
      test_spec_bytes_not_larger;
    Alcotest.test_case "stats shape" `Quick test_stats_shape;
    Alcotest.test_case "hot/cold probe counters" `Quick test_probe_counters;
    Alcotest.test_case "hot/cold probe counters exact at -j1 and -j4" `Quick
      test_probe_counters_parallel;
    Alcotest.test_case "auto profile: pinned comb order, both targets" `Quick
      test_auto_profile_comb_pinned;
    Alcotest.test_case "heat profile canonicalisation" `Quick
      test_heat_canonical;
    Alcotest.test_case "profiled save/load validation" `Quick test_save_load;
    Alcotest.test_case "v2/v3 files rejected and rebuilt" `Quick
      test_stale_formats_rebuilt;
    Alcotest.test_case "cache round trip" `Quick test_cache_roundtrip;
    Alcotest.test_case "cache listing and eviction" `Quick
      test_cache_listing_and_eviction;
  ]
