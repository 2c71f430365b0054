(* Unit tests for the peephole optimizer (the paper's section 6.1
   alternative organisation). *)

open Gg_codegen
module Insn = Gg_ir.Insn
module Mode = Gg_ir.Mode

let check_int = Alcotest.(check int)

let asm insns = List.map (fun i -> String.trim (Insn.assembly i)) insns

let check name expected input =
  let out, _ = Peephole.optimize input in
  Alcotest.(check (list string)) name expected (asm out)

let r n = Mode.reg n
let sym s = Mode.mem_sym s

let test_jump_to_next () =
  (* the jump goes, and then the now-unreferenced label goes too *)
  check "jbr to next label removed" [ "ret" ]
    [ Insn.Branch ("jbr", 1); Insn.Lab 1; Insn.Ret ];
  (* a referenced label survives *)
  check "referenced label stays" [ "L1:"; "jneq\tL1"; "ret" ]
    [ Insn.Lab 1; Insn.Branch ("jneq", 1); Insn.Ret ]

let test_branch_over_jump () =
  (* jeql L1; jbr L2; L1: inverts to jneq L2; L1 then becomes
     unreferenced and the label pass removes it *)
  let out, stats =
    Peephole.optimize
      [ Insn.Branch ("jeql", 1); Insn.Branch ("jbr", 2); Insn.Lab 1;
        Insn.Lab 2; Insn.Ret ]
  in
  check_int "one inversion" 1 stats.Peephole.inverted_branches;
  Alcotest.(check (list string)) "final form"
    [ "jneq\tL2"; "L2:"; "ret" ]
    (asm out)

let test_self_move () =
  check "mov x,x removed" [ "ret" ]
    [ Insn.insn "movl" [ sym "a"; sym "a" ]; Insn.Ret ]

let test_move_roundtrip () =
  check "second move dead"
    [ "movl\ta,r6"; "ret" ]
    [ Insn.insn "movl" [ sym "a"; r 6 ]; Insn.insn "movl" [ r 6; sym "a" ];
      Insn.Ret ]

let test_move_kept_before_branch () =
  (* removing it would change the condition codes the branch sees *)
  check "kept"
    [ "movl\ta,a"; "jeql\tL1"; "L1:" ]
    [ Insn.insn "movl" [ sym "a"; sym "a" ]; Insn.Branch ("jeql", 1);
      Insn.Lab 1 ]

let test_redundant_test () =
  check "tst after computation removed"
    [ "addl3\ta,b,x"; "jneq\tL1"; "L1:" ]
    [ Insn.insn "addl3" [ sym "a"; sym "b"; sym "x" ];
      Insn.insn "tstl" [ sym "x" ]; Insn.Branch ("jneq", 1); Insn.Lab 1 ]

let test_test_kept_when_different_operand () =
  check "tst of another location kept"
    [ "addl3\ta,b,x"; "tstl\ty"; "jneq\tL1"; "L1:" ]
    [ Insn.insn "addl3" [ sym "a"; sym "b"; sym "x" ];
      Insn.insn "tstl" [ sym "y" ]; Insn.Branch ("jneq", 1); Insn.Lab 1 ]

let test_unreferenced_labels () =
  check "labels dropped"
    [ "jneq\tL3"; "movl\ta,b"; "L3:"; "ret" ]
    [ Insn.Lab 1; Insn.Branch ("jneq", 3);
      Insn.insn "movl" [ sym "a"; sym "b" ]; Insn.Lab 2; Insn.Lab 3; Insn.Ret ]

let test_autoinc_never_removed () =
  (* (r6)+ has a side effect even in a silly-looking move *)
  check "auto operand kept"
    [ "movl\t(r6)+,(r6)+" ]
    [ Insn.insn "movl" [ Mode.autoinc 6; Mode.autoinc 6 ] ]

let test_fixpoint_cascade () =
  (* removing a jump exposes an unreferenced label, which then goes too *)
  let out, _ =
    Peephole.optimize
      [ Insn.Branch ("jbr", 5); Insn.Lab 5; Insn.Ret ]
  in
  Alcotest.(check (list string)) "both removed" [ "ret" ] (asm out)

let test_peephole_preserves_fuzzed_observables () =
  (* control-flow fuzzer programs are much denser in branches and
     labels than the fixed corpus, so they stress exactly the windows
     the optimizer rewrites; with peephole on, both backends must stay
     observationally equal to the interpreter *)
  let options =
    { Gg_codegen.Driver.default_options with Gg_codegen.Driver.peephole = true }
  in
  let engines = [ Gg_fuzz.Oracle.engine_for Gg_codegen.Backend.Vax ] in
  for seed = 1000 to 1019 do
    let prog =
      Gg_ir.Treegen.control_program ~seed Gg_ir.Treegen.default_config
    in
    match Gg_fuzz.Oracle.check ~options ~engines prog with
    | Ok _ -> ()
    | Error f ->
      Alcotest.failf "seed %d: %a" seed Gg_fuzz.Oracle.pp_failure f
    | exception Gg_fuzz.Oracle.Invalid m ->
      Alcotest.failf "seed %d: generator produced invalid program: %s" seed m
  done

let suite =
  [
    Alcotest.test_case "jump to next label" `Quick test_jump_to_next;
    Alcotest.test_case "branch over jump" `Quick test_branch_over_jump;
    Alcotest.test_case "self move" `Quick test_self_move;
    Alcotest.test_case "move roundtrip" `Quick test_move_roundtrip;
    Alcotest.test_case "move kept before branch" `Quick
      test_move_kept_before_branch;
    Alcotest.test_case "redundant test" `Quick test_redundant_test;
    Alcotest.test_case "unrelated test kept" `Quick
      test_test_kept_when_different_operand;
    Alcotest.test_case "unreferenced labels" `Quick test_unreferenced_labels;
    Alcotest.test_case "autoincrement kept" `Quick test_autoinc_never_removed;
    Alcotest.test_case "fixpoint cascade" `Quick test_fixpoint_cascade;
    Alcotest.test_case "peephole preserves observables on fuzzed programs"
      `Slow test_peephole_preserves_fuzzed_observables;
  ]
