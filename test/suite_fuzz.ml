(* The fuzzing subsystem itself: determinism and well-formedness of the
   control-flow generator, parity of the matcher over the packed tables
   with the reference loop over the dense ones on fuzzed trees
   (property-based), the greedy shrinker, production-coverage
   accounting, and a small oracle campaign. *)

module Tree = Gg_ir.Tree
module Dtype = Gg_ir.Dtype
module Treegen = Gg_ir.Treegen
module Termname = Gg_ir.Termname
module Transform = Gg_transform.Transform
module Matcher = Gg_matcher.Matcher
module Tables = Gg_tablegen.Tables
module Packed = Gg_tablegen.Packed
module Oracle = Gg_fuzz.Oracle
module Shrink = Gg_fuzz.Shrink
module Coverage = Gg_fuzz.Coverage
module Campaign = Gg_fuzz.Campaign
module Driver = Gg_codegen.Driver

let cfg = Treegen.default_config

(* -- generator ------------------------------------------------------------- *)

let test_determinism () =
  for seed = 0 to 20 do
    let a = Treegen.control_program ~seed cfg in
    let b = Treegen.control_program ~seed cfg in
    if a <> b then Alcotest.failf "seed %d: two generations differ" seed
  done;
  let distinct =
    List.sort_uniq compare
      (List.init 20 (fun seed -> Treegen.control_program ~seed cfg))
  in
  Alcotest.(check bool) "different seeds give different programs" true
    (List.length distinct > 15)

let test_well_formed () =
  for seed = 0 to 50 do
    let prog = Treegen.control_program ~seed cfg in
    List.iter
      (fun (f : Tree.func) ->
        List.iter
          (function
            | Tree.Stree t -> (
              match Tree.check t with
              | Ok () -> ()
              | Error m ->
                Alcotest.failf "seed %d, %s: ill-formed tree: %s" seed
                  f.Tree.fname m)
            | _ -> ())
          f.Tree.body)
      prog.Tree.funcs
  done

let test_uses_control_flow () =
  (* the point of the generator: programs must actually contain
     branches, loops, calls and short-circuit operators *)
  let seen_cbranch = ref 0
  and seen_call = ref 0
  and seen_logical = ref 0 in
  let rec walk t =
    (match t with
    | Tree.Cbranch _ -> incr seen_cbranch
    | Tree.Call _ -> incr seen_call
    | Tree.Land _ | Tree.Lor _ | Tree.Lnot _ | Tree.Relval _ | Tree.Select _ ->
      incr seen_logical
    | _ -> ());
    List.iter walk (Tree.children t)
  in
  for seed = 0 to 30 do
    let prog = Treegen.control_program ~seed cfg in
    List.iter
      (fun (f : Tree.func) ->
        List.iter
          (function Tree.Stree t -> walk t | _ -> ())
          f.Tree.body)
      prog.Tree.funcs
  done;
  Alcotest.(check bool) "branches generated" true (!seen_cbranch > 30);
  Alcotest.(check bool) "calls generated" true (!seen_call > 10);
  Alcotest.(check bool) "logical operators generated" true (!seen_logical > 30)

(* -- packed vs dense on fuzzed trees (property-based) ----------------------- *)

let vax_grammar = lazy (Oracle.default_grammar ())
let dense_tables = lazy (Tables.build (Lazy.force vax_grammar))
let packed_tables = lazy (Packed.pack (Lazy.force dense_tables))

let null_cb : unit Matcher.callbacks =
  {
    Matcher.on_shift = (fun _ -> ());
    on_reduce = (fun _ _ -> ());
    choose = (fun _ _ -> 0);
  }

(* matcher-ready statement trees of one fuzzed program *)
let fuzzed_trees seed =
  let prog = Treegen.control_program ~seed cfg in
  List.concat_map
    (fun (f : Tree.func) ->
      let tr = Transform.run f in
      List.filter_map
        (function Tree.Stree t -> Some t | _ -> None)
        tr.Transform.func.Tree.body)
    prog.Tree.funcs

let trace_of run tokens =
  match run ~trace:true null_cb tokens with
  | (outcome : unit Matcher.outcome) -> Ok outcome.Matcher.trace
  | exception Matcher.Reject e -> Error (e.Matcher.at, e.Matcher.token)

let dense_trace =
  trace_of (fun ~trace -> Matcher_ref.run ~trace (Lazy.force dense_tables))

let packed_trace =
  trace_of (fun ~trace ->
      Matcher.run ~trace ~grammar:(Lazy.force vax_grammar)
        (Lazy.force packed_tables))

let prop_packed_equals_dense_on_fuzzed =
  QCheck.Test.make ~name:"packed = dense on fuzzed control-flow trees"
    ~count:60
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      List.for_all
        (fun tree ->
          let tokens = Termname.linearize tree in
          (* cell-for-cell: the full shift/reduce traces, not just the
             final assembly, must coincide *)
          dense_trace tokens = packed_trace tokens)
        (fuzzed_trees seed))

(* -- shrinker --------------------------------------------------------------- *)

let test_shrink_synthetic () =
  (* predicate: "some statement multiplies by the global gx0"; the
     shrinker must cut an 80+-statement program down to a hand-sized
     reproducer while the predicate keeps holding *)
  let rec tree_has_mul t =
    (match t with
    | Tree.Binop (Gg_ir.Op.Mul, _, _, _) -> true
    | _ -> false)
    || List.exists tree_has_mul (Tree.children t)
  in
  let has_mul prog =
    List.exists
      (fun (f : Tree.func) ->
        List.exists
          (function Tree.Stree t -> tree_has_mul t | _ -> false)
          f.Tree.body)
      prog.Tree.funcs
  in
  let seed = 7 in
  let prog = Treegen.control_program ~seed cfg in
  Alcotest.(check bool) "seed program satisfies the predicate" true
    (has_mul prog);
  let shrunk, stats = Shrink.run ~check:(Shrink.valid_and has_mul) prog in
  Alcotest.(check bool) "still satisfies the predicate" true (has_mul shrunk);
  Alcotest.(check bool)
    (Fmt.str "shrunk to a hand-sized reproducer (%d -> %d statements)"
       stats.Shrink.stmts_before stats.Shrink.stmts_after)
    true
    (stats.Shrink.stmts_after <= 5);
  Alcotest.(check bool) "shrunk program still runs" true
    (match Gg_ir.Interp.run ~max_steps:1_000_000 shrunk ~entry:"main" [] with
    | (_ : Gg_ir.Interp.outcome) -> true
    | exception Gg_ir.Interp.Runtime_error _ -> false)

(* -- coverage --------------------------------------------------------------- *)

let test_coverage_accounting () =
  let tables = Lazy.force Driver.default_tables in
  let compile seed =
    ignore
      (Driver.compile_program ~tables (Treegen.control_program ~seed cfg))
  in
  let (), fired1 = Coverage.with_fired (fun () -> compile 1) in
  Alcotest.(check bool) "a compile fires productions" true
    (List.length fired1 > 10);
  (* recording off: nothing accumulates *)
  let counts_before = Gg_profile.Profile.production_counts () in
  compile 2;
  Alcotest.(check bool) "disabled recording adds nothing" true
    (Gg_profile.Profile.production_counts () = counts_before)

let test_fuzz_beats_baseline_coverage () =
  (* the acceptance criterion: the control-flow fuzzer must fire
     strictly more productions than the fixed corpus plus the
     straight-line generator *)
  let tables = Lazy.force Driver.default_tables in
  let baseline = Coverage.baseline tables in
  let (), fired =
    Coverage.with_fired (fun () ->
        for seed = 0 to 40 do
          ignore
            (Driver.compile_program ~tables (Treegen.control_program ~seed cfg))
        done)
  in
  let module S = Set.Make (Int) in
  let extra = S.diff (S.of_list fired) (S.of_list baseline) in
  Alcotest.(check bool)
    (Fmt.str "fuzzer fires %d productions the baseline never does"
       (S.cardinal extra))
    true
    (S.cardinal extra > 0)

(* -- a small oracle campaign ------------------------------------------------ *)

let test_mini_campaign () =
  let campaign_cfg =
    {
      Campaign.default_config with
      Campaign.seed_lo = 0;
      seed_hi = 25;
      corpus_dir = "";
    }
  in
  let r = Campaign.run campaign_cfg in
  Alcotest.(check int) "all seeds produced programs" 26 r.Campaign.programs;
  (match r.Campaign.divergences with
  | [] -> ()
  | d :: _ ->
    Alcotest.failf "seed %d: %a" d.Campaign.seed Oracle.pp_failure
      d.Campaign.failure);
  Alcotest.(check bool) "coverage was recorded" true
    (List.length r.Campaign.fired > 100)

(* -- dumps ------------------------------------------------------------------ *)

let test_dump_roundtrip () =
  let prog = Treegen.control_program ~seed:3 cfg in
  let dir = Filename.temp_file "ggfuzz" "" in
  Sys.remove dir;
  let path = Gg_fuzz.Dump.save ~dir ~name:"t" prog in
  let loaded = Gg_fuzz.Dump.load_ir path in
  Alcotest.(check bool) "ir round-trips" true (prog = loaded);
  Alcotest.(check bool) "ocaml dump written" true
    (Sys.file_exists (Filename.concat dir "t.ml"));
  Sys.remove path;
  Sys.remove (Filename.concat dir "t.ml");
  Sys.rmdir dir

let suite =
  [
    Alcotest.test_case "generator is deterministic per seed" `Quick
      test_determinism;
    Alcotest.test_case "generated trees are well-formed" `Quick
      test_well_formed;
    Alcotest.test_case "generator exercises control flow" `Quick
      test_uses_control_flow;
    QCheck_alcotest.to_alcotest prop_packed_equals_dense_on_fuzzed;
    Alcotest.test_case "shrinker reaches a hand-sized reproducer" `Quick
      test_shrink_synthetic;
    Alcotest.test_case "coverage accounting on/off" `Quick
      test_coverage_accounting;
    Alcotest.test_case "fuzzer beats baseline coverage" `Slow
      test_fuzz_beats_baseline_coverage;
    Alcotest.test_case "mini oracle campaign" `Slow
      test_mini_campaign;
    Alcotest.test_case "dump round-trip" `Quick test_dump_roundtrip;
  ]
