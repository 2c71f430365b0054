(* Tests for the VAX target description: addressing-mode formatting,
   the instruction cost model, the Fig. 3 instruction table, and the
   machine grammar (statistics, checks, ablations). *)

open Gg_ir
open Gg_vax
module Tables = Gg_tablegen.Tables
module Checks = Gg_tablegen.Checks

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* -- Mode ------------------------------------------------------------------- *)

let test_mode_assembly () =
  check_str "register" "r6" (Mode.assembly (Mode.reg 6));
  check_str "fp" "fp" (Mode.assembly (Mode.reg Regconv.fp));
  check_str "immediate" "$42" (Mode.assembly (Mode.imm 42L));
  check_str "negative immediate" "$-1" (Mode.assembly (Mode.imm (-1L)));
  check_str "float literal" "$0f1.5" (Mode.assembly (Mode.Fimm 1.5));
  check_str "symbol" "a" (Mode.assembly (Mode.mem_sym "a"));
  check_str "displacement" "-4(fp)" (Mode.assembly (Mode.mem_disp (-4L) Regconv.fp));
  check_str "sym+disp" "a+8(r6)" (Mode.assembly (Mode.mem_disp ~sym:"a" 8L 6));
  check_str "deferred" "(r7)" (Mode.assembly (Mode.mem_deferred 7));
  check_str "autoincrement" "(r6)+" (Mode.assembly (Mode.autoinc 6));
  check_str "autodecrement" "-(sp)" (Mode.assembly (Mode.autodec Regconv.sp));
  check_str "indexed" "8(r6)[r7]"
    (Mode.assembly (Mode.with_index (Mode.mem_disp 8L 6) 7));
  check_str "symbol indexed" "arr[r9]"
    (Mode.assembly (Mode.with_index (Mode.mem_sym "arr") 9))

let test_mode_registers () =
  Alcotest.(check (list int)) "indexed regs" [ 6; 7 ]
    (Mode.registers (Mode.with_index (Mode.mem_disp 8L 6) 7));
  Alcotest.(check (list int)) "immediate none" [] (Mode.registers (Mode.imm 1L))

let test_mode_predicates () =
  check_bool "reg" true (Mode.is_register (Mode.reg 3));
  check_bool "imm" true (Mode.is_immediate (Mode.imm 0L));
  check_bool "mem" true (Mode.is_memory (Mode.mem_sym "x"));
  Alcotest.(check (option int64)) "immediate value" (Some 7L)
    (Mode.immediate (Mode.imm 7L))

let test_mode_with_index_errors () =
  (match Mode.with_index (Mode.autoinc 6) 7 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "indexed an auto mode");
  match Mode.with_index (Mode.reg 6) 7 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "indexed a register"

(* -- Insn ------------------------------------------------------------------- *)

let test_insn_assembly () =
  check_str "three operand" "\taddl3\t$1,b,r6"
    (Insn.assembly (Insn.insn "addl3" [ Mode.imm 1L; Mode.mem_sym "b"; Mode.reg 6 ]));
  check_str "branch" "\tjneq\tL4" (Insn.assembly (Insn.Branch ("jneq", 4)));
  check_str "call" "\tcalls\t$2,fib" (Insn.assembly (Insn.Call ("fib", 2)));
  check_str "label" "L9:" (Insn.assembly (Insn.Lab 9));
  check_str "ret" "\tret" (Insn.assembly Insn.Ret)

let test_insn_cycles_ordering () =
  let cost m = Insn.cycles (Insn.insn m [ Mode.reg 1; Mode.reg 2 ]) in
  check_bool "mul > add" true (cost "mull2" > cost "addl2");
  check_bool "div > mul" true (cost "divl2" > cost "mull2");
  check_bool "mov cheap" true (cost "movl" <= cost "addl2");
  check_bool "memory costs more" true
    (Insn.cycles (Insn.insn "addl2" [ Mode.mem_sym "a"; Mode.reg 1 ])
    > Insn.cycles (Insn.insn "addl2" [ Mode.reg 2; Mode.reg 1 ]))

let test_insn_count_lines () =
  check_int "comments free" 2
    (Insn.count_lines
       [ Insn.Comment "x"; Insn.Ret; Insn.Lab 1; Insn.Comment "y" ])

(* -- Insn_table (Fig. 3) ------------------------------------------------------ *)

let test_fig3_add_long_cluster () =
  (* the paper's example: addl3 / addl2 / incl *)
  match Insn_table.find_exn "add.l" with
  | [ r3; r2; r1 ] ->
    check_str "addl3" "addl3" r3.Insn_table.print;
    check_int "3 operands" 3 r3.Insn_table.nops;
    check_bool "binding" true r3.Insn_table.binding;
    check_bool "commutes" true r3.Insn_table.commutes;
    check_str "addl2" "addl2" r2.Insn_table.print;
    Alcotest.(check (option string)) "range" (Some "$add") r2.Insn_table.range;
    check_str "incl" "incl" r1.Insn_table.print;
    check_int "1 operand" 1 r1.Insn_table.nops
  | _ -> Alcotest.fail "wrong cluster shape"

let test_sub_does_not_commute () =
  match Insn_table.find_exn "sub.l" with
  | r3 :: _ ->
    check_bool "binding" true r3.Insn_table.binding;
    check_bool "no commute" false r3.Insn_table.commutes
  | _ -> Alcotest.fail "no cluster"

let test_float_add_has_no_inc () =
  match Insn_table.find_exn "add.d" with
  | [ _; r2 ] -> Alcotest.(check (option string)) "no range" None r2.Insn_table.range
  | _ -> Alcotest.fail "wrong float cluster shape"

let test_mov_cluster_clr () =
  match Insn_table.find_exn "mov.b" with
  | [ mv; clr ] ->
    check_str "movb" "movb" mv.Insn_table.print;
    Alcotest.(check (option string)) "zero range" (Some "$mov")
      mv.Insn_table.range;
    check_str "clrb" "clrb" clr.Insn_table.print
  | _ -> Alcotest.fail "wrong mov cluster"

let test_range_predicates () =
  check_bool "$one matches 1" true (Insn_table.range_matches "$one" (Mode.imm 1L));
  check_bool "$one rejects 2" false (Insn_table.range_matches "$one" (Mode.imm 2L));
  Alcotest.(check (option string)) "add 1 -> incl" (Some "incl")
    (Insn_table.range_apply "$add" "l" (Mode.imm 1L));
  Alcotest.(check (option string)) "add -1 -> decl" (Some "decl")
    (Insn_table.range_apply "$add" "l" (Mode.imm (-1L)));
  Alcotest.(check (option string)) "mov 0 -> clrb" (Some "clrb")
    (Insn_table.range_apply "$mov" "b" (Mode.imm 0L));
  Alcotest.(check (option string)) "cmp 0 -> tstw" (Some "tstw")
    (Insn_table.range_apply "$cmp" "w" (Mode.imm 0L));
  Alcotest.(check (option string)) "no idiom" None
    (Insn_table.range_apply "$add" "l" (Mode.reg 0))

let test_pseudo_classification () =
  check_bool "mod pseudo" true (Insn_table.is_pseudo "mod.l");
  check_bool "udiv pseudo" true (Insn_table.is_pseudo "udiv.l");
  check_bool "add not" false (Insn_table.is_pseudo "add.l");
  check_bool "cvt not" false (Insn_table.is_pseudo "cvt.bl")

let test_all_known_keys_resolve () =
  List.iter
    (fun key ->
      match Insn_table.find key with
      | Some _ -> ()
      | None -> Alcotest.failf "key %s does not resolve" key)
    (Insn_table.known_keys ())

(* -- Grammar_def --------------------------------------------------------------- *)

let test_default_grammar_builds () =
  let g = Lazy.force Grammar_def.default_grammar in
  let s = Gg_grammar.Grammar.stats g in
  check_bool "hundreds of productions" true (s.Gg_grammar.Grammar.productions > 300);
  check_bool "many terminals" true (s.Gg_grammar.Grammar.terminals > 100);
  (* well-formed: nothing unreachable or unproductive *)
  let report = Gg_grammar.Grammar.check g in
  Alcotest.(check (list string)) "reachable" [] report.Gg_grammar.Grammar.unreachable;
  Alcotest.(check (list string)) "productive" [] report.Gg_grammar.Grammar.unproductive

let test_replication_growth () =
  let o = Grammar_def.default in
  let generic = List.length (Grammar_def.schemas o) in
  let replicated =
    (Gg_grammar.Grammar.stats (Grammar_def.grammar o)).Gg_grammar.Grammar.productions
  in
  (* the paper reports 458 -> 1073 (x2.3); our subset grows similarly *)
  check_bool "replication multiplies productions" true
    (replicated > 2 * generic)

let test_no_silent_chain_cycles () =
  let report = Checks.chains (Lazy.force Grammar_def.default_grammar) in
  Alcotest.(check (list (list string))) "no silent cycles" []
    report.Checks.silent_cycles

let test_no_blocks_with_bridges () =
  let o = Grammar_def.default in
  let t = Tables.build (Grammar_def.grammar o) in
  let tl = Grammar_def.treelang o in
  check_int "no blocks" 0
    (List.length
       (Checks.blocks t ~arity:tl.Treelang.arity ~starts:tl.Treelang.starts))

let test_blocks_without_bridges () =
  let o = { Grammar_def.default with Grammar_def.with_bridges = false } in
  let t = Tables.build (Grammar_def.grammar o) in
  let tl = Grammar_def.treelang o in
  check_bool "blocks appear" true
    (Checks.blocks t ~arity:tl.Treelang.arity ~starts:tl.Treelang.starts <> [])

let test_reverse_ops_growth () =
  (* the reverse-operator ablation of section 5.1.3 *)
  let with_r = Grammar_def.grammar Grammar_def.default in
  let without_r =
    Grammar_def.grammar { Grammar_def.default with Grammar_def.reverse_ops = false }
  in
  let p_with = (Gg_grammar.Grammar.stats with_r).Gg_grammar.Grammar.productions in
  let p_without = (Gg_grammar.Grammar.stats without_r).Gg_grammar.Grammar.productions in
  check_bool "grammar grows" true (p_with > p_without);
  let s_with = (Tables.stats (Tables.build with_r)).Tables.states in
  let s_without = (Tables.stats (Tables.build without_r)).Tables.states in
  check_bool "tables grow" true (s_with > s_without)

(* T-TBLC's subset: with only longs allowed, every class of the
   description is cut down to [l], so no symbol of another type is left
   (the widened immediates and the byte-index modes included) *)
let test_long_only_subset () =
  let g =
    Grammar_def.grammar
      { Grammar_def.default with Grammar_def.int_types = [ Dtype.Long ]; float_types = [] }
  in
  let st = g.Gg_grammar.Grammar.symtab in
  let names =
    List.init (Gg_grammar.Symtab.n_terms st) (Gg_grammar.Symtab.term_name st)
    @ List.init (Gg_grammar.Symtab.n_nonterms st) (Gg_grammar.Symtab.nonterm_name st)
  in
  let other_type name =
    List.exists
      (fun sfx -> Filename.check_suffix name ("." ^ sfx))
      [ "b"; "w"; "f"; "d" ]
  in
  Alcotest.(check (list string)) "symbols of another type" []
    (List.filter other_type names);
  check_int "productions" 93 (Gg_grammar.Grammar.n_productions g)

let test_overfactored_variant_builds () =
  let o = { Grammar_def.default with Grammar_def.overfactored = true } in
  let t = Tables.build (Grammar_def.grammar o) in
  check_bool "builds" true (Tables.n_states t > 0)

(* -- Treelang -------------------------------------------------------------------- *)

let test_treelang_arities () =
  let tl = Grammar_def.treelang Grammar_def.default in
  check_int "Plus.l" 2 (tl.Treelang.arity "Plus.l");
  check_int "Indir.b" 1 (tl.Treelang.arity "Indir.b");
  check_int "Cmp.l" 3 (tl.Treelang.arity "Cmp.l");
  check_int "Cbranch" 1 (tl.Treelang.arity "Cbranch");
  check_int "Const.l" 0 (tl.Treelang.arity "Const.l")

let test_treelang_starts () =
  let tl = Grammar_def.treelang Grammar_def.default in
  let root = tl.Treelang.starts ~parent:None ~child:0 in
  check_bool "Assign.l starts a statement" true (List.mem "Assign.l" root);
  check_bool "Cbranch starts a statement" true (List.mem "Cbranch" root);
  let assign_dst = tl.Treelang.starts ~parent:(Some "Assign.l") ~child:0 in
  check_bool "destination accepts Name.l" true (List.mem "Name.l" assign_dst);
  check_bool "destination rejects Const.l" false (List.mem "Const.l" assign_dst);
  let plus_child = tl.Treelang.starts ~parent:(Some "Plus.b") ~child:1 in
  check_bool "byte operand accepts Const.b" true (List.mem "Const.b" plus_child);
  check_bool "byte operand accepts conversions in" true
    (List.mem "Cvt.lb" plus_child)

let suite =
  [
    Alcotest.test_case "mode assembly" `Quick test_mode_assembly;
    Alcotest.test_case "mode registers" `Quick test_mode_registers;
    Alcotest.test_case "mode predicates" `Quick test_mode_predicates;
    Alcotest.test_case "with_index errors" `Quick test_mode_with_index_errors;
    Alcotest.test_case "insn assembly" `Quick test_insn_assembly;
    Alcotest.test_case "cost model ordering" `Quick test_insn_cycles_ordering;
    Alcotest.test_case "count_lines skips comments" `Quick
      test_insn_count_lines;
    Alcotest.test_case "Fig.3 add.l cluster" `Quick test_fig3_add_long_cluster;
    Alcotest.test_case "sub does not commute" `Quick test_sub_does_not_commute;
    Alcotest.test_case "float add has no inc" `Quick test_float_add_has_no_inc;
    Alcotest.test_case "mov cluster clr idiom" `Quick test_mov_cluster_clr;
    Alcotest.test_case "range predicates" `Quick test_range_predicates;
    Alcotest.test_case "pseudo classification" `Quick
      test_pseudo_classification;
    Alcotest.test_case "all known keys resolve" `Quick
      test_all_known_keys_resolve;
    Alcotest.test_case "default grammar builds" `Quick
      test_default_grammar_builds;
    Alcotest.test_case "replication growth" `Quick test_replication_growth;
    Alcotest.test_case "no silent chain cycles" `Quick
      test_no_silent_chain_cycles;
    Alcotest.test_case "no blocks with bridges" `Quick
      test_no_blocks_with_bridges;
    Alcotest.test_case "blocks without bridges" `Quick
      test_blocks_without_bridges;
    Alcotest.test_case "reverse-ops growth" `Quick test_reverse_ops_growth;
    Alcotest.test_case "long-only subset has only long symbols" `Quick
      test_long_only_subset;
    Alcotest.test_case "overfactored variant builds" `Quick
      test_overfactored_variant_builds;
    Alcotest.test_case "treelang arities" `Quick test_treelang_arities;
    Alcotest.test_case "treelang starts" `Quick test_treelang_starts;
  ]
