(* Tests for the RISC target description: static safety of the machine
   grammar (chain cycles, syntactic blocks), the load/store discipline
   of the generated assembly, the instruction table, and the backend
   record wiring.  Execution-level parity with the interpreter and the
   VAX backend lives in suite_riscdiff, suite_sim and suite_ops. *)

open Gg_ir
open Gg_risc
module Driver = Gg_codegen.Driver
module Tables = Gg_tablegen.Tables
module Checks = Gg_tablegen.Checks

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let risc_tables = lazy (Driver.build_tables ~backend:Target.backend Grammar_def.default)

(* -- static grammar checks -------------------------------------------------- *)

let test_no_silent_chain_cycles () =
  let report = Checks.chains (Lazy.force Grammar_def.default_grammar) in
  Alcotest.(check (list (list string))) "no silent cycles" []
    report.Checks.silent_cycles

let test_no_blocks () =
  (* the RISC grammar needs no bridges: [reg.l] derives every long
     value, so every address position can always be repaired through a
     register *)
  let o = Grammar_def.default in
  let t = Tables.build (Grammar_def.grammar o) in
  let tl = Grammar_def.treelang o in
  check_int "no blocks" 0
    (List.length
       (Checks.blocks t ~arity:tl.Treelang.arity ~starts:tl.Treelang.starts))

let test_no_blocks_no_reverse () =
  (* the tree-language description keeps [Rassign] even with reverse
     operators off (the ordering phase simply never produces it), so
     the only acceptable blocks are on Rassign at the root — the same
     caveat the VAX grammar has in this configuration *)
  let o = { Grammar_def.default with Gg_vax.Grammar_def.reverse_ops = false } in
  let t = Tables.build (Grammar_def.grammar o) in
  let tl = Grammar_def.treelang o in
  let blocks =
    Checks.blocks t ~arity:tl.Treelang.arity ~starts:tl.Treelang.starts
  in
  List.iter
    (fun b ->
      let prefix = "Rassign." in
      let n = String.length prefix in
      if
        not
          (String.length b.Checks.terminal > n
          && String.sub b.Checks.terminal 0 n = prefix)
      then
        Alcotest.failf "unexpected block on %s in state %d" b.Checks.terminal
          b.Checks.state)
    blocks

let test_grammar_smaller_than_vax () =
  (* fewer addressing modes means fewer productions, despite the extra
     immediate-operand ALU forms *)
  let risc =
    (Gg_grammar.Grammar.stats (Lazy.force Grammar_def.default_grammar))
      .Gg_grammar.Grammar.productions
  in
  let vax =
    (Gg_grammar.Grammar.stats (Lazy.force Gg_vax.Grammar_def.default_grammar))
      .Gg_grammar.Grammar.productions
  in
  check_bool "risc grammar smaller" true (risc < vax)

(* -- instruction table ------------------------------------------------------ *)

let test_mnemonics () =
  check_str "addl" "addl" (Insn_table.mn "add" Dtype.Long);
  check_str "addf" "addf" (Insn_table.mn "add" Dtype.Flt);
  check_str "remb" "remb" (Insn_table.mn "rem" Dtype.Byte)

let test_bcc () =
  check_str "signed lt" "blt" (Insn_table.bcc Op.Lt Dtype.Signed Dtype.Long);
  check_str "unsigned lt" "bltu" (Insn_table.bcc Op.Lt Dtype.Unsigned Dtype.Long);
  check_str "unsigned eq" "beq" (Insn_table.bcc Op.Eq Dtype.Unsigned Dtype.Long);
  check_str "float ge" "bge" (Insn_table.bcc Op.Ge Dtype.Signed Dtype.Dbl)

let test_render_call () =
  check_str "call" "\tcall\t$2,fib" (Insn_table.render (Insn.Call ("fib", 2)));
  check_str "plain insn unchanged" "\taddl\tr6,$1,r7"
    (Insn_table.render
       (Insn.insn "addl" [ Mode.reg 6; Mode.imm 1L; Mode.reg 7 ]))

let test_cycles () =
  check_int "alu" 1 (Insn_table.cycles (Insn.insn "addl" []));
  check_int "load" 2 (Insn_table.cycles (Insn.insn "ldl" []));
  check_int "div" 12 (Insn_table.cycles (Insn.insn "divl" []));
  check_int "label free" 0 (Insn_table.cycles (Insn.Lab 1))

(* -- generated assembly ----------------------------------------------------- *)

let risc_mnemonics_ok line =
  (* every instruction line must use a known RISC mnemonic; in
     particular nothing VAX-flavoured (mov*, jbr, calls, addl2/3) may
     leak through *)
  if String.length line = 0 || line.[0] <> '\t' then true
  else
    let rest = String.sub line 1 (String.length line - 1) in
    let mnemonic =
      match String.index_opt rest '\t' with
      | Some i -> String.sub rest 0 i
      | None -> rest
    in
    let prefixes =
      [ "li"; "ld"; "st"; "mv"; "la"; "add"; "sub"; "mul"; "div"; "rem";
        "and"; "or"; "xor"; "sll"; "sra"; "neg"; "not"; "cvt"; "cmp"; "b";
        "call"; "ret"; "#"; "." (* assembler directives *) ]
    in
    List.exists
      (fun p ->
        String.length mnemonic >= String.length p
        && String.sub mnemonic 0 (String.length p) = p)
      prefixes

let no_vax_modes line =
  (* no autoincrement, autodecrement or index syntax may appear *)
  let has sub =
    let n = String.length sub and m = String.length line in
    let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
    go 0
  in
  not (has ")+" || has "-(" || has "[r")

let compile_risc prog =
  (Driver.compile_program ~tables:(Lazy.force risc_tables) prog)
    .Driver.assembly

let test_corpus_assembly_shape () =
  List.iter
    (fun (name, src) ->
      let prog = Gg_frontc.Sema.compile src in
      let asm = compile_risc prog in
      String.split_on_char '\n' asm
      |> List.iter (fun line ->
             if not (risc_mnemonics_ok line) then
               Alcotest.failf "%s: non-RISC mnemonic in %S" name line;
             if not (no_vax_modes line) then
               Alcotest.failf "%s: VAX addressing mode in %S" name line))
    Gg_frontc.Corpus.fixed_programs

let test_random_assembly_shape () =
  for seed = 1 to 20 do
    let prog =
      Gg_frontc.Sema.lower_program
        (Gg_frontc.Corpus.program ~seed ~functions:2 ~stmts_per_function:8)
    in
    let asm = compile_risc prog in
    String.split_on_char '\n' asm
    |> List.iter (fun line ->
           if not (risc_mnemonics_ok line) then
             Alcotest.failf "seed %d: non-RISC mnemonic in %S" seed line;
           if not (no_vax_modes line) then
             Alcotest.failf "seed %d: VAX addressing mode in %S" seed line)
  done

let test_backend_record () =
  check_str "name" "risc" (Gg_codegen.Backend.name Target.backend);
  check_bool "no peephole" true (Target.backend.Gg_codegen.Backend.peephole = None);
  check_str "jump" "\tb\tL3"
    (Insn.assembly (Target.backend.Gg_codegen.Backend.jump 3));
  check_str "prologue" "\tsubl\tsp,$8,sp\n"
    (Target.backend.Gg_codegen.Backend.prologue 8)

let suite =
  [
    Alcotest.test_case "no silent chain cycles" `Quick
      test_no_silent_chain_cycles;
    Alcotest.test_case "no syntactic blocks" `Quick test_no_blocks;
    Alcotest.test_case "no blocks without reverse ops" `Quick
      test_no_blocks_no_reverse;
    Alcotest.test_case "grammar smaller than VAX" `Quick
      test_grammar_smaller_than_vax;
    Alcotest.test_case "mnemonics" `Quick test_mnemonics;
    Alcotest.test_case "branch table" `Quick test_bcc;
    Alcotest.test_case "call rendering" `Quick test_render_call;
    Alcotest.test_case "cycle model" `Quick test_cycles;
    Alcotest.test_case "corpus assembly shape" `Quick
      test_corpus_assembly_shape;
    Alcotest.test_case "random assembly shape" `Quick
      test_random_assembly_shape;
    Alcotest.test_case "backend record" `Quick test_backend_record;
  ]
