(* A tour of the code-generator-generator workbench: build the VAX
   machine description, construct tables, inspect conflicts, and
   reproduce the paper's grammar-engineering stories — over-factoring
   (section 6.2.1) and missing bridge productions (sections 6.2.2/6.3).

     dune exec examples/grammar_workbench.exe *)

module Grammar = Gg_grammar.Grammar
module Tables = Gg_tablegen.Tables
module Checks = Gg_tablegen.Checks
module Grammar_def = Gg_vax.Grammar_def
module Treelang = Gg_ir.Treelang

let stats_of options =
  let g = Grammar_def.grammar options in
  let t = Tables.build g in
  (Grammar.stats g, Tables.stats t, g, t)

let () =
  Fmt.pr "=== the production VAX description ===@.";
  let gs, ts, g, t = stats_of Grammar_def.default in
  Fmt.pr "%a@.%a@." Grammar.pp_stats gs Tables.pp_stats ts;

  (* chain-rule report (section 3.2's looping configurations) *)
  let chains = Checks.chains g in
  Fmt.pr "chain cycles: %d silent (must be 0), %d through emitting productions@."
    (List.length chains.Checks.silent_cycles)
    (List.length chains.Checks.emitting_cycles);

  (* syntactic blocks: with and without the bridge productions *)
  let tl = Grammar_def.treelang Grammar_def.default in
  let blocks t =
    Checks.blocks t ~arity:tl.Treelang.arity ~starts:tl.Treelang.starts
  in
  Fmt.pr "potential syntactic blocks (with bridges): %d@."
    (List.length (blocks t));
  let _, _, _, t_nb =
    stats_of { Grammar_def.default with Grammar_def.with_bridges = false }
  in
  let bs = blocks t_nb in
  Fmt.pr "without the bridge productions: %d blocked (state, terminal) pairs@."
    (List.length bs);
  (match bs with
  | b :: _ ->
    Fmt.pr "first one (the section 6.3 scale-constant case):@.%a@."
      Checks.pp_block b
  | [] -> ());

  (* the over-factoring ablation: grouping Plus/Mul into an operator
     class shrinks the grammar but changes conflict structure *)
  Fmt.pr "@.=== over-factored variant (section 6.2.1) ===@.";
  let gs_of, ts_of, _, _ =
    stats_of { Grammar_def.default with Grammar_def.overfactored = true }
  in
  Fmt.pr "%a@.%a@." Grammar.pp_stats gs_of Tables.pp_stats ts_of;
  Fmt.pr
    "(the class non-terminal removes %d productions and %d states, which is \
     why the paper's authors tried it — and then spent section 6.2.1 undoing \
     it)@."
    (gs.Grammar.productions - gs_of.Grammar.productions)
    (ts.Tables.states - ts_of.Tables.states);

  (* the other 6.2.1 story: the condition-code assumption broken by the
     no-code chain production reg <- Dreg, demonstrated live *)
  Fmt.pr "@.=== the condition-code over-factoring bug (section 6.2.1) ===@.";
  let src =
    "int a; int b; int x;\n\
     int main() {\n\
    \  register int r;\n\
    \  r = 0; a = 6; b = 7;\n\
    \  x = a * b;\n\
    \  if (r != 0) print(1); else print(0);\n\
    \  return 0;\n\
     }\n"
  in
  let prog = Gg_frontc.Sema.compile src in
  let run gopts =
    let options =
      { Gg_codegen.Driver.default_options with Gg_codegen.Driver.grammar = gopts }
    in
    let tables = Gg_codegen.Driver.build_tables gopts in
    let c = Gg_codegen.Driver.compile_program ~options ~tables prog in
    (Gg_targets.Targets.run_text ~target:Gg_codegen.Backend.Vax
       c.Gg_codegen.Driver.assembly ~global_types:prog.Gg_ir.Tree.globals
       ~entry:"main" [])
      .Gg_ir.Simout.output
  in
  Fmt.pr "r = 0; x = a*b; if (r != 0) ... should print 0@.";
  Fmt.pr "with the Branch-Cmp-Dreg production:    prints %a@."
    Fmt.(list string)
    (run Grammar_def.default);
  Fmt.pr "without it (the original bug):          prints %a@."
    Fmt.(list string)
    (run { Grammar_def.default with Grammar_def.condition_code_fix = false })
