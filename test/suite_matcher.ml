(* Tests for the shift/reduce pattern matcher: parses of linearised
   trees against the toy grammar, maximal munch behaviour, traces,
   error reporting, and parity with the reference loop over the dense
   tables; the tree walk against the token list on both targets, scratch
   sharing between overlapping runs, and the exact allocation of a
   run. *)

open Gg_tablegen
open Gg_matcher
module Tree = Gg_ir.Tree
module Dtype = Gg_ir.Dtype
module Op = Gg_ir.Op
module Termname = Gg_ir.Termname
module Grammar = Gg_grammar.Grammar
module Treegen = Gg_ir.Treegen
module Transform = Gg_transform.Transform
module Backend = Gg_codegen.Backend
module Driver = Gg_codegen.Driver
module Targets = Gg_targets.Targets
module Profile = Gg_profile.Profile
module Metrics = Gg_profile.Metrics

let tables = lazy (Tables.build Toy.grammar)
let packed = lazy (Packed.pack (Lazy.force tables))

(* the production path: the matcher over the packed toy tables *)
let run_toy ?trace cb tokens =
  Matcher.run ?trace ~grammar:Toy.grammar (Lazy.force packed) cb tokens

let run_toy_tree ?trace ?special_constants cb tree =
  Matcher.run_tree ?trace ?special_constants ~grammar:Toy.grammar
    (Lazy.force packed) cb tree

let run_tree tree =
  let emitted = ref [] in
  let cb = Toy.string_callbacks emitted in
  let outcome = run_toy_tree ~trace:true cb tree in
  (List.rev !emitted, outcome)

let test_simple_assign () =
  let insns, _ = run_tree Toy.assign_tree in
  (* maximal munch must pick the five-symbol memory-destination add, so
     exactly one instruction comes out *)
  Alcotest.(check (list string)) "single addl3" [ "add.l a,c,b" ] insns

let test_nested_expression () =
  let insns, _ = run_tree Toy.nested_tree in
  Alcotest.(check int) "three instructions" 3 (List.length insns);
  (* the two multiplies must be emitted before the final add *)
  (match insns with
  | [ m1; m2; a ] ->
    Alcotest.(check bool) "mul first" true
      (String.length m1 >= 5 && String.sub m1 0 5 = "mul.l");
    Alcotest.(check bool) "mul second" true
      (String.length m2 >= 5 && String.sub m2 0 5 = "mul.l");
    Alcotest.(check bool) "add last" true
      (String.length a >= 5 && String.sub a 0 5 = "add.l")
  | _ -> Alcotest.fail "wrong shape")

let test_trace_shape () =
  let _, outcome = run_tree Toy.assign_tree in
  let shifts =
    List.filter (function Matcher.Sshift _ -> true | _ -> false)
      outcome.Matcher.trace
  in
  (* one shift per input token: Assign Name Plus Name Name *)
  Alcotest.(check int) "five shifts" 5 (List.length shifts);
  match List.rev outcome.Matcher.trace with
  | Matcher.Saccept :: _ -> ()
  | _ -> Alcotest.fail "trace does not end in accept"

let test_register_assign_uses_dreg_lval () =
  (* r6 = b: lval comes from the Dreg production *)
  let tree =
    Tree.Assign
      (Dtype.Long, Tree.Dreg (Dtype.Long, 6), Tree.Name (Dtype.Long, "b"))
  in
  let insns, _ = run_tree tree in
  Alcotest.(check (list string)) "mov into register" [ "mov.l r6,b" ] insns

let test_reject_unknown_terminal () =
  (* bytes are not in the toy grammar at all *)
  let tree =
    Tree.Assign
      (Dtype.Byte, Tree.Name (Dtype.Byte, "a"), Tree.Const (Dtype.Byte, 1L))
  in
  let emitted = ref [] in
  let cb = Toy.string_callbacks emitted in
  match run_toy_tree cb tree with
  | exception Matcher.Reject _ -> ()
  | _ -> Alcotest.fail "byte tree accepted by long-only grammar"

let test_reject_reports_state_and_expected () =
  (* Const.l where a statement must start *)
  let tokens =
    [ { Termname.term = "Const.l"; node = Tree.Const (Dtype.Long, 1L) } ]
  in
  let emitted = ref [] in
  let cb = Toy.string_callbacks emitted in
  match run_toy cb tokens with
  | exception Matcher.Reject e ->
    Alcotest.(check int) "at token 0" 0 e.Matcher.at;
    Alcotest.(check (list string)) "expected assign" [ "Assign.l" ]
      e.Matcher.expected
  | _ -> Alcotest.fail "statement-position constant accepted"

let test_reject_on_truncated_input () =
  let tokens =
    [
      { Termname.term = "Assign.l"; node = Toy.assign_tree };
      { Termname.term = "Name.l"; node = Tree.Name (Dtype.Long, "a") };
    ]
  in
  let emitted = ref [] in
  let cb = Toy.string_callbacks emitted in
  match run_toy cb tokens with
  | exception Matcher.Reject e ->
    Alcotest.(check string) "eof token" "<eof>" e.Matcher.token
  | _ -> Alcotest.fail "truncated input accepted"

(* Parse many random long-typed trees: none should block, and the number
   of emitted instructions is bounded by the number of operators. *)
let random_long_tree =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Tree.Name (Dtype.Long, Fmt.str "g%d" (abs n mod 5))) int;
        map (fun n -> Tree.Const (Dtype.Long, Int64.of_int (n mod 100))) int;
        return (Tree.Dreg (Dtype.Long, 6));
      ]
  in
  let node self n =
    if n <= 1 then leaf
    else
      frequency
        [
          (1, leaf);
          ( 3,
            map2
              (fun op (a, b) -> Tree.Binop (op, Dtype.Long, a, b))
              (oneofl [ Op.Plus; Op.Mul ])
              (pair (self (n / 2)) (self (n / 2))) );
        ]
  in
  let tree = sized_size (int_range 1 40) (fix node) in
  map
    (fun e -> Tree.Assign (Dtype.Long, Tree.Name (Dtype.Long, "a"), e))
    tree

let count_ops tree =
  Tree.fold
    (fun acc t -> match t with Tree.Binop _ | Tree.Assign _ -> acc + 1 | _ -> acc)
    0 tree

let prop_random_trees_parse =
  QCheck.Test.make ~name:"random long trees all parse" ~count:200
    (QCheck.make random_long_tree)
    (fun tree ->
      let emitted = ref [] in
      let cb = Toy.string_callbacks emitted in
      let _ = run_toy_tree ~special_constants:false cb tree in
      List.length !emitted <= count_ops tree)

let prop_linear_time =
  QCheck.Test.make ~name:"trace length is linear in tree size" ~count:100
    (QCheck.make random_long_tree)
    (fun tree ->
      let emitted = ref [] in
      let cb = Toy.string_callbacks emitted in
      let outcome = run_toy_tree ~trace:true ~special_constants:false cb tree in
      (* each token is shifted once and every reduction consumes stack:
         total steps are bounded by a small multiple of the input *)
      List.length outcome.Matcher.trace <= 4 * Tree.size tree + 2)

(* the code the reference loop emits over the dense tables, and the
   code the matcher emits over the packed ones *)
let emitted_by_both ?special_constants tree =
  let run_one drive =
    let emitted = ref [] in
    let _ = drive (Toy.string_callbacks emitted) in
    List.rev !emitted
  in
  ( run_one (fun cb ->
        Matcher_ref.run (Lazy.force tables) cb
          (Termname.linearize ?special_constants tree)),
    run_one (fun cb -> run_toy_tree ?special_constants cb tree) )

let test_packed_tables_drive_matcher () =
  (* the comb-packed tables must produce identical emitted sequences *)
  List.iter
    (fun tree ->
      let via_dense, via_packed = emitted_by_both tree in
      Alcotest.(check (list string)) "same code" via_dense via_packed)
    [ Toy.assign_tree; Toy.nested_tree ]

let prop_packed_equals_dense =
  QCheck.Test.make ~name:"packed tables emit the same code" ~count:100
    (QCheck.make random_long_tree)
    (fun tree ->
      let via_dense, via_packed =
        emitted_by_both ~special_constants:false tree
      in
      via_dense = via_packed)

(* -- the tree walk against the token list ----------------------------------- *)

(* Semantic values that spell the whole parse: a shifted node, or a
   production applied to its arguments.  They depend on nothing but the
   run, so runs that overlap on one set of callbacks can be compared
   with runs made one at a time. *)
type deriv = Leaf of Tree.t | Node of int * deriv array

let rec deriv_equal a b =
  match (a, b) with
  | Leaf x, Leaf y -> x == y
  | Node (p, xs), Node (q, ys) ->
    p = q
    && Array.length xs = Array.length ys
    && Array.for_all2 deriv_equal xs ys
  | _ -> false

(* every callback call, in order *)
type event =
  | Shifted of Tree.t
  | Reduced of int * deriv array
  | Chose of int array * deriv array list

let event_equal a b =
  match (a, b) with
  | Shifted x, Shifted y -> x == y
  | Reduced (p, xs), Reduced (q, ys) -> deriv_equal (Node (p, xs)) (Node (q, ys))
  | Chose (ps, xss), Chose (qs, yss) ->
    ps = qs
    && List.length xss = List.length yss
    && List.for_all2
         (fun xs ys -> deriv_equal (Node (0, xs)) (Node (0, ys)))
         xss yss
  | _ -> false

let deriv_callbacks ?(hook = fun () -> ()) ?log () =
  let note e = Option.iter (fun l -> l := e :: !l) log in
  Matcher.callbacks
    ~on_shift:(fun node ->
      note (Shifted node);
      Leaf node)
    ~on_reduce:(fun p args ->
      hook ();
      note (Reduced (p.Grammar.id, args));
      Node (p.Grammar.id, args))
    ~choose:(fun candidates argss ->
      note (Chose (Array.map (fun p -> p.Grammar.id) candidates, argss));
      Array.length candidates - 1)
    ()

(* the value and trace, or every field of the reject, and the callback
   log, of one run on fresh callbacks *)
let observe run =
  let log = ref [] in
  let result =
    match run (deriv_callbacks ~log ()) with
    | (o : deriv Matcher.outcome) -> Ok (o.Matcher.value, o.Matcher.trace)
    | exception Matcher.Reject e -> Error e
  in
  (result, List.rev !log)

let same_observation (r1, l1) (r2, l2) =
  (match (r1, r2) with
  | Ok (v1, t1), Ok (v2, t2) -> deriv_equal v1 v2 && t1 = t2
  | Error e1, Error e2 -> e1 = e2
  | _ -> false)
  && List.length l1 = List.length l2
  && List.for_all2 event_equal l1 l2

(* the walk spells the lineariser's tokens, node for node *)
let same_tokens walked oracle =
  List.length walked = List.length oracle
  && List.for_all2
       (fun (a : Termname.token) (b : Termname.token) ->
         a.term = b.term && a.node == b.node)
       walked oracle

let walk_equals_list ~grammar packed ~special_constants tree =
  let oracle = Matcher_ref.linearize ~special_constants tree in
  same_tokens (Termname.linearize ~special_constants tree) oracle
  && same_observation
       (observe (fun cb ->
            Matcher.run_tree ~trace:true ~special_constants ~grammar packed cb
              tree))
       (observe (fun cb -> Matcher.run ~trace:true ~grammar packed cb oracle))

let prop_walk_equals_list_toy =
  QCheck.Test.make ~name:"run_tree = run (linearize): toy random trees"
    ~count:200
    QCheck.(pair (make random_long_tree) bool)
    (fun (tree, special_constants) ->
      walk_equals_list ~grammar:Toy.grammar (Lazy.force packed)
        ~special_constants tree)

(* matcher-ready statement trees of a program, transformed for [target] *)
let stmt_trees target (prog : Tree.program) =
  let leaf_need = (Targets.backend_of target).Backend.leaf_need in
  List.concat_map
    (fun (f : Tree.func) ->
      let tr = Transform.run ~leaf_need f in
      List.filter_map
        (function Tree.Stree t -> Some t | _ -> None)
        tr.Transform.func.Tree.body)
    prog.Tree.funcs

(* straight-line typed trees at every width, and control flow: every
   Cbranch, Arg and Rassign shape the transform produces *)
let treegen_trees target seed =
  stmt_trees target (Treegen.program ~seed ~stmts:6)
  @ stmt_trees target
      (Treegen.control_program ~seed
         { Treegen.default_config with stmts = 4; functions = 1 })

let prop_walk_equals_list_target target =
  QCheck.Test.make
    ~name:
      (Fmt.str "run_tree = run (linearize): %s Treegen trees"
         (Targets.name target))
    ~count:40
    QCheck.(pair (int_bound 100_000) bool)
    (fun (seed, special_constants) ->
      let tables = Targets.default_tables target in
      List.for_all
        (walk_equals_list ~grammar:tables.Driver.grammar tables.Driver.packed
           ~special_constants)
        (treegen_trees target seed))

(* -- scratch sharing ---------------------------------------------------------- *)

let same_outcome (o1 : deriv Matcher.outcome) (o2 : deriv Matcher.outcome) =
  deriv_equal o1.Matcher.value o2.Matcher.value
  && o1.Matcher.trace = o2.Matcher.trace

let test_reentrant_run_gets_private_scratch () =
  let outer_tree = Toy.nested_tree and inner_tree = Toy.assign_tree in
  let alone t = run_toy_tree ~trace:true (deriv_callbacks ()) t in
  let self = ref None and entered = ref false and inner = ref None in
  let hook () =
    (* mid-run, at the outer run's first reduction: re-enter the
       matcher, once, on the very callbacks the outer run is using *)
    match !self with
    | Some cb when not !entered ->
      entered := true;
      inner := Some (run_toy_tree ~trace:true cb inner_tree)
    | _ -> ()
  in
  let cb = deriv_callbacks ~hook () in
  self := Some cb;
  let outer = run_toy_tree ~trace:true cb outer_tree in
  (match !inner with
  | Some o ->
    Alcotest.(check bool) "inner run = inner run alone" true
      (same_outcome o (alone inner_tree))
  | None -> Alcotest.fail "the callback never re-entered the matcher");
  Alcotest.(check bool) "outer run = outer run alone" true
    (same_outcome outer (alone outer_tree));
  (* the shared scratch is free again: later runs, which re-enter no
     more, still match *)
  Alcotest.(check bool) "next run on the callbacks" true
    (same_outcome (run_toy_tree ~trace:true cb outer_tree) (alone outer_tree))

let test_callbacks_shared_across_domains () =
  let tables = Targets.default_tables Backend.Vax in
  let trees = treegen_trees Backend.Vax 7 @ treegen_trees Backend.Vax 8 in
  let run cb t =
    Matcher.run_tree ~trace:true ~grammar:tables.Driver.grammar
      tables.Driver.packed cb t
  in
  let expected = List.map (fun t -> run (deriv_callbacks ()) t) trees in
  let cb = deriv_callbacks () in
  let work () =
    let ok = ref true in
    for _ = 1 to 20 do
      List.iter2
        (fun t e -> if not (same_outcome (run cb t) e) then ok := false)
        trees expected
    done;
    !ok
  in
  let d = Domain.spawn work in
  let here = work () in
  let there = Domain.join d in
  Alcotest.(check bool) "this domain's runs" true here;
  Alcotest.(check bool) "the other domain's runs" true there

(* -- exact allocation ---------------------------------------------------------- *)

(* What the allocation contract permits a run, summed by the callbacks
   themselves, which allocate nothing: each reduction's argument array
   (its length plus a header word) and, per semantic tie, the candidate
   array and the one-element list handed to [choose]. *)
let contract_words = ref 0

let counting_cb : unit Matcher.callbacks =
  Matcher.callbacks
    ~on_shift:(fun _ -> ())
    ~on_reduce:(fun _ args ->
      contract_words := !contract_words + Array.length args + 1)
    ~choose:(fun candidates _ ->
      contract_words := !contract_words + Array.length candidates + 1 + 3;
      0)
    ()

(* a record of two fields and a header *)
let outcome_words = 3

let rec run_all grammar packed = function
  | [] -> ()
  | t :: rest ->
    ignore (Matcher.run_tree ~grammar packed counting_cb t : unit Matcher.outcome);
    run_all grammar packed rest

(* minor words [run_all] allocates over [trees], less the cost of the
   measurement itself *)
let run_all_words grammar packed trees =
  let w0 = Gc.minor_words () in
  run_all grammar packed [];
  let empty = Gc.minor_words () -. w0 in
  let w0 = Gc.minor_words () in
  run_all grammar packed trees;
  Gc.minor_words () -. w0 -. empty

let with_telemetry_off f =
  let metrics = !Metrics.enabled and coverage = !Profile.coverage_enabled in
  Metrics.enabled := false;
  Profile.coverage_enabled := false;
  Fun.protect f ~finally:(fun () ->
      Metrics.enabled := metrics;
      Profile.coverage_enabled := coverage)

let test_exact_allocation () =
  with_telemetry_off (fun () ->
      List.iter
        (fun target ->
          let tables = Targets.default_tables target in
          let g = tables.Driver.grammar and p = tables.Driver.packed in
          let trees =
            List.concat_map
              (fun (_, src) -> stmt_trees target (Gg_frontc.Sema.compile src))
              Gg_frontc.Corpus.fixed_programs
            @ List.concat_map (treegen_trees target) [ 1; 2; 3; 4 ]
          in
          (* warm: the scratch has grown to the longest tree *)
          run_all g p trees;
          contract_words := 0;
          let words = run_all_words g p trees in
          let allowed =
            !contract_words + (outcome_words * List.length trees)
          in
          if words <> float_of_int allowed then
            Alcotest.failf "%s: %d trees allocated %.0f minor words, not %d"
              (Targets.name target) (List.length trees) words allowed)
        Targets.all)

let test_reject_frees_scratch () =
  with_telemetry_off (fun () ->
      let g = Toy.grammar and p = Lazy.force packed in
      (* bytes are not in the toy grammar: the run rejects *)
      let byte_tree =
        Tree.Assign
          (Dtype.Byte, Tree.Name (Dtype.Byte, "a"), Tree.Const (Dtype.Byte, 1L))
      in
      let trees = [ Toy.nested_tree; Toy.assign_tree ] in
      run_all g p trees;
      (match Matcher.run_tree ~grammar:g p counting_cb byte_tree with
      | exception Matcher.Reject _ -> ()
      | _ -> Alcotest.fail "byte tree accepted by long-only grammar");
      (* a run that found the scratch still taken would allocate a
         private one *)
      contract_words := 0;
      let words = run_all_words g p trees in
      let allowed = !contract_words + (outcome_words * List.length trees) in
      Alcotest.(check (float 0.)) "the runs after a reject reuse the scratch"
        (float_of_int allowed) words)

let suite =
  [
    Alcotest.test_case "simple assign uses widest pattern" `Quick
      test_simple_assign;
    Alcotest.test_case "nested expression order" `Quick test_nested_expression;
    Alcotest.test_case "trace shape" `Quick test_trace_shape;
    Alcotest.test_case "register destination" `Quick
      test_register_assign_uses_dreg_lval;
    Alcotest.test_case "unknown terminal rejected" `Quick
      test_reject_unknown_terminal;
    Alcotest.test_case "reject reports expected set" `Quick
      test_reject_reports_state_and_expected;
    Alcotest.test_case "truncated input rejected" `Quick
      test_reject_on_truncated_input;
    QCheck_alcotest.to_alcotest prop_random_trees_parse;
    QCheck_alcotest.to_alcotest prop_linear_time;
    Alcotest.test_case "packed tables drive the matcher" `Quick
      test_packed_tables_drive_matcher;
    QCheck_alcotest.to_alcotest prop_packed_equals_dense;
    QCheck_alcotest.to_alcotest prop_walk_equals_list_toy;
    QCheck_alcotest.to_alcotest (prop_walk_equals_list_target Backend.Vax);
    QCheck_alcotest.to_alcotest (prop_walk_equals_list_target Backend.Risc);
    Alcotest.test_case "re-entrant run gets a private scratch" `Quick
      test_reentrant_run_gets_private_scratch;
    Alcotest.test_case "callbacks shared across domains" `Quick
      test_callbacks_shared_across_domains;
    Alcotest.test_case "run_tree: exact minor-heap words" `Quick
      test_exact_allocation;
    Alcotest.test_case "a reject frees the shared scratch" `Quick
      test_reject_frees_scratch;
  ]
