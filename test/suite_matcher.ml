(* Tests for the shift/reduce pattern matcher: parses of linearised
   trees against the toy grammar, maximal munch behaviour, traces,
   error reporting, and parity with the reference loop over the dense
   tables. *)

open Gg_tablegen
open Gg_matcher
module Tree = Gg_ir.Tree
module Dtype = Gg_ir.Dtype
module Op = Gg_ir.Op
module Termname = Gg_ir.Termname

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
  ]
