(* The multi-domain batch compiler and the optimised matcher loop:
   Parallel.map ordering and exception semantics, byte-identical
   assembly at every -j on the fixed corpus and on fuzzed programs,
   optimised-vs-reference matcher parity (property-based, including
   rejects), and profile-counter/coverage exactness under domains. *)

module Tree = Gg_ir.Tree
module Dtype = Gg_ir.Dtype
module Termname = Gg_ir.Termname
module Treegen = Gg_ir.Treegen
module Tables = Gg_tablegen.Tables
module Matcher = Gg_matcher.Matcher
module Parallel = Gg_codegen.Parallel
module Driver = Gg_codegen.Driver
module Sema = Gg_frontc.Sema
module Corpus = Gg_frontc.Corpus
module Profile = Gg_profile.Profile

let tables = Driver.default_tables

(* -- Parallel.map ----------------------------------------------------------- *)

let test_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  let want = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Fmt.str "jobs=%d" jobs)
        want
        (Parallel.map ~jobs (fun x -> x * x) xs))
    [ 1; 2; 4; 8; 100 ]

let test_map_edge_cases () =
  Alcotest.(check (list int)) "empty input" [] (Parallel.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Parallel.map ~jobs:4 succ [ 1 ]);
  Alcotest.(check (list int))
    "more jobs than items" [ 2; 3 ]
    (Parallel.map ~jobs:16 succ [ 1; 2 ])

exception Boom of int

let test_map_reraises_earliest_failure () =
  (* several inputs fail; the exception surfaced must be the one of the
     earliest failing input, independent of scheduling *)
  let f x = if x mod 3 = 0 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      match Parallel.map ~jobs f (List.init 20 (fun i -> i + 1)) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x ->
        Alcotest.(check int) (Fmt.str "jobs=%d" jobs) 3 x)
    [ 1; 2; 4 ]

let test_map_exception_by_last_item () =
  (* the failure arriving last in every schedule: all other items have
     already succeeded when it raises, so the join path (not the fast
     path) must surface it *)
  let n = 20 in
  let f x = if x = n - 1 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      match Parallel.map ~jobs f (List.init n Fun.id) with
      | _ -> Alcotest.fail "expected Boom from the last item"
      | exception Boom x ->
        Alcotest.(check int) (Fmt.str "jobs=%d" jobs) (n - 1) x)
    [ 1; 2; 4; 32 ]

let test_map_leaves_no_live_domains () =
  (* pool shutdown must be complete on every exit path: normal return,
     empty input, and exceptional return *)
  let check_zero what =
    Alcotest.(check int) (what ^ ": live domains after") 0
      (Parallel.live_domains ())
  in
  ignore (Parallel.map ~jobs:8 succ (List.init 50 Fun.id));
  check_zero "normal map";
  ignore (Parallel.map ~jobs:8 succ []);
  check_zero "zero items";
  ignore (Parallel.map ~jobs:16 succ [ 1; 2; 3 ]);
  check_zero "jobs > items";
  (match Parallel.map ~jobs:4 (fun _ -> raise (Boom 0)) [ 1; 2; 3 ] with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom _ -> ());
  check_zero "failing map"

let test_spawn_pool_runs_and_joins () =
  let hits = Array.make 4 0 in
  let pool =
    Parallel.spawn_pool ~domains:4 (fun i -> hits.(i) <- hits.(i) + 1)
  in
  Parallel.join_pool pool;
  Alcotest.(check (list int)) "every member ran once" [ 1; 1; 1; 1 ]
    (Array.to_list hits);
  Alcotest.(check int) "no live domains after join" 0
    (Parallel.live_domains ());
  (* a member crash surfaces at join, after every member has been
     joined (no abandoned domains) *)
  let pool =
    Parallel.spawn_pool ~domains:3 (fun i -> if i = 1 then raise (Boom i))
  in
  (match Parallel.join_pool pool with
  | () -> Alcotest.fail "expected Boom from member 1"
  | exception Boom i -> Alcotest.(check int) "failing member" 1 i);
  Alcotest.(check int) "no live domains after failed join" 0
    (Parallel.live_domains ())

(* -- the persistent pool under forced oversubscription ----------------------- *)

(* On a small box the production clamp makes every [~jobs] sequential
   (that is the -j fix); [~oversubscribe:true] lifts the clamp so these
   tests push real multi-domain batches through the shared pool no
   matter where they run. *)

let test_oversubscribed_map () =
  let xs = List.init 200 Fun.id in
  let want = List.map (fun x -> (x * 3) + 1) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Fmt.str "oversubscribed jobs=%d" jobs)
        want
        (Parallel.map ~oversubscribe:true ~jobs (fun x -> (x * 3) + 1) xs))
    [ 2; 4; 8 ];
  Alcotest.(check int) "workers parked, none live" 0 (Parallel.live_domains ())

let test_pool_reuse_and_shutdown () =
  (* the pool persists across batches (that is the point of it), parks
     between them, and respawns lazily after an explicit shutdown *)
  for _ = 1 to 5 do
    ignore (Parallel.map ~oversubscribe:true ~jobs:4 succ (List.init 40 Fun.id))
  done;
  Alcotest.(check int) "parked workers are not live" 0
    (Parallel.live_domains ());
  Parallel.shutdown ();
  Parallel.shutdown () (* idempotent *);
  Alcotest.(check (list int)) "map after shutdown respawns the pool"
    [ 2; 3; 4 ]
    (Parallel.map ~oversubscribe:true ~jobs:3 succ [ 1; 2; 3 ]);
  Parallel.shutdown ()

let test_nested_map_runs_inline () =
  (* a map issued while the pool is busy with the enclosing batch must
     fall back to the sequential path with identical results *)
  let want =
    List.init 8 (fun i -> List.init 10 (fun j -> (i * 10) + j + 1))
  in
  let got =
    Parallel.map ~oversubscribe:true ~jobs:4
      (fun i ->
        Parallel.map ~oversubscribe:true ~jobs:4 succ
          (List.init 10 (fun j -> (i * 10) + j)))
      (List.init 8 Fun.id)
  in
  Alcotest.(check (list (list int))) "nested map results" want got;
  Alcotest.(check int) "no live domains after" 0 (Parallel.live_domains ())

(* -- assembly determinism ---------------------------------------------------- *)

let compile ~jobs prog =
  (Driver.compile_program ~tables:(Lazy.force tables) ~jobs prog)
    .Driver.assembly

let test_fixed_corpus_identical () =
  List.iter
    (fun (name, src) ->
      let prog = Sema.compile src in
      let a1 = compile ~jobs:1 prog in
      List.iter
        (fun j ->
          Alcotest.(check string) (Fmt.str "%s -j%d" name j) a1
            (compile ~jobs:j prog))
        [ 2; 4 ])
    Corpus.fixed_programs

let test_fuzzed_programs_identical () =
  for seed = 0 to 49 do
    let prog = Treegen.control_program ~seed Treegen.default_config in
    if compile ~jobs:1 prog <> compile ~jobs:4 prog then
      Alcotest.failf "seed %d: -j4 assembly differs from -j1" seed
  done

(* -- optimised loop vs the pre-optimisation reference ------------------------ *)

(* the optimised loop runs over the packed toy tables, the reference
   over the dense ones *)
let toy_dense = lazy (Tables.build Toy.grammar)
let toy_packed = lazy (Gg_tablegen.Packed.pack (Lazy.force toy_dense))

(* everything observable: the final value, the full trace, the emitted
   instructions, and on a reject every field of the error — including
   the "<looping>" backstop, which both loops raise after the same
   reduction budget *)
let outcome_of runner tokens =
  let emitted = ref [] in
  let cb = Toy.string_callbacks emitted in
  match runner cb tokens with
  | (o : string Matcher.outcome) ->
    Ok (o.Matcher.value, o.Matcher.trace, List.rev !emitted)
  | exception Matcher.Reject e ->
    Error (e.Matcher.at, e.Matcher.token, e.Matcher.state, e.Matcher.expected)

let optimised cb t =
  Matcher.run ~trace:true ~grammar:Toy.grammar (Lazy.force toy_packed) cb t

let reference cb t = Matcher_ref.run ~trace:true (Lazy.force toy_dense) cb t

let prop_parity_on_random_trees =
  QCheck.Test.make ~name:"optimised = reference loop on random trees"
    ~count:200
    (QCheck.make Suite_matcher.random_long_tree)
    (fun tree ->
      let tokens = Termname.linearize ~special_constants:false tree in
      outcome_of optimised tokens = outcome_of reference tokens)

let random_token_stream =
  (* arbitrary streams, most of them syntactically blocked and some
     containing names outside the grammar: the loops must agree on the
     reject position, state and expected set too *)
  let open QCheck.Gen in
  let name =
    oneofl
      [
        "Assign.l"; "Plus.l"; "Mul.l"; "Name.l"; "Const.l"; "Dreg.l";
        "lval.l" (* a non-terminal name: never a valid lookahead *);
        "Bogus.q" (* unknown terminal *);
      ]
  in
  list_size (int_range 0 12)
    (map
       (fun term -> { Termname.term; node = Tree.Const (Dtype.Long, 0L) })
       name)

let prop_parity_on_random_token_streams =
  QCheck.Test.make ~name:"optimised = reference loop on random token streams"
    ~count:500
    (QCheck.make
       ~print:(fun ts ->
         String.concat " " (List.map (fun t -> t.Termname.term) ts))
       random_token_stream)
    (fun tokens -> outcome_of optimised tokens = outcome_of reference tokens)

(* -- profiling exactness under parallelism ----------------------------------- *)

let snap (c : Profile.counters) =
  (c.Profile.shifts, c.Profile.reduces, c.Profile.semantic_choices,
   c.Profile.matcher_runs)

let test_counters_exact_under_parallelism () =
  let prog = Treegen.control_program ~seed:11 Treegen.default_config in
  let totals jobs =
    Profile.reset ();
    ignore (compile ~jobs prog);
    snap (Profile.totals ())
  in
  let show (a, b, c, d) = Fmt.str "(%d,%d,%d,%d)" a b c d in
  let s1 = totals 1 in
  let s4 = totals 4 in
  let s8 = totals 8 in
  Profile.reset ();
  let (a, b, c, _) = s1 in
  Alcotest.(check bool) "counters were recorded" true (a > 0 && b > 0 && c >= 0);
  if s4 <> s1 || s8 <> s1 then
    Alcotest.failf "merged counters drift: j1 %s, j4 %s, j8 %s" (show s1)
      (show s4) (show s8)

let test_parity_and_telemetry_through_pool () =
  (* byte parity and counter exactness through the real pool: the
     production clamp would serialise every -j on a 1-core box, so
     force genuine multi-domain batches with ~oversubscribe *)
  let compile_over ~jobs prog =
    (Driver.compile_program ~tables:(Lazy.force tables) ~oversubscribe:true
       ~jobs prog)
      .Driver.assembly
  in
  let prog = Treegen.control_program ~seed:23 Treegen.default_config in
  let run jobs =
    Profile.reset ();
    let asm = compile_over ~jobs prog in
    (asm, snap (Profile.totals ()))
  in
  let asm1, s1 = run 1 in
  let (a, b, _, _) = s1 in
  Alcotest.(check bool) "counters were recorded" true (a > 0 && b > 0);
  List.iter
    (fun jobs ->
      let asm, s = run jobs in
      Alcotest.(check string) (Fmt.str "-j%d assembly = -j1" jobs) asm1 asm;
      if s <> s1 then
        Alcotest.failf "-j%d merged counters differ from -j1" jobs)
    [ 2; 4; 8 ];
  Profile.reset ();
  Parallel.shutdown ()

let test_coverage_exact_under_parallelism () =
  let prog = Treegen.control_program ~seed:17 Treegen.default_config in
  let counts jobs =
    Profile.coverage_enabled := true;
    Profile.reset_coverage ();
    ignore (compile ~jobs prog);
    let c = Profile.production_counts () in
    Profile.coverage_enabled := false;
    c
  in
  let c1 = counts 1 in
  Alcotest.(check bool) "coverage is non-empty" true (c1 <> []);
  Alcotest.(check bool) "j4 coverage = j1" true (counts 4 = c1)

let suite =
  [
    Alcotest.test_case "Parallel.map preserves input order" `Quick
      test_map_preserves_order;
    Alcotest.test_case "Parallel.map edge cases" `Quick test_map_edge_cases;
    Alcotest.test_case "Parallel.map re-raises the earliest failure" `Quick
      test_map_reraises_earliest_failure;
    Alcotest.test_case "Parallel.map exception raised by the last item" `Quick
      test_map_exception_by_last_item;
    Alcotest.test_case "Parallel.map leaves no live domains" `Quick
      test_map_leaves_no_live_domains;
    Alcotest.test_case "spawn_pool/join_pool lifecycle" `Quick
      test_spawn_pool_runs_and_joins;
    Alcotest.test_case "oversubscribed map forces real domains" `Quick
      test_oversubscribed_map;
    Alcotest.test_case "pool persists, shuts down, respawns" `Quick
      test_pool_reuse_and_shutdown;
    Alcotest.test_case "nested map falls back to inline" `Quick
      test_nested_map_runs_inline;
    Alcotest.test_case "byte parity + exact counters through the pool" `Quick
      test_parity_and_telemetry_through_pool;
    Alcotest.test_case "fixed corpus: -j2/-j4 assembly = -j1" `Slow
      test_fixed_corpus_identical;
    Alcotest.test_case "50 fuzzed programs: -j4 assembly = -j1" `Slow
      test_fuzzed_programs_identical;
    QCheck_alcotest.to_alcotest prop_parity_on_random_trees;
    QCheck_alcotest.to_alcotest prop_parity_on_random_token_streams;
    Alcotest.test_case "profile counters exact under -j" `Quick
      test_counters_exact_under_parallelism;
    Alcotest.test_case "production coverage exact under -j" `Quick
      test_coverage_exact_under_parallelism;
  ]
