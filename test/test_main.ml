let () =
  Alcotest.run "ggcg"
    [
      ("ir", Suite_ir.suite);
      ("grammar", Suite_grammar.suite);
      ("tablegen", Suite_tablegen.suite);
      ("matcher", Suite_matcher.suite);
      ("transform", Suite_transform.suite);
      ("vax", Suite_vax.suite);
      ("risc", Suite_risc.suite);
      ("riscdiff", Suite_riscdiff.suite);
      ("ops", Suite_ops.suite);
      ("codegen", Suite_codegen.suite);
      (* both instruction sets; the group keeps its first name so its
         test ids stay stable *)
      ("vaxsim", Suite_sim.suite);
      ("peephole", Suite_peephole.suite);
      ("regmgr", Suite_regmgr.suite);
      ("frontc", Suite_frontc.suite);
      ("pcc", Suite_pcc.suite);
      ("differential", Suite_diff.suite);
      ("packed", Suite_packed.suite);
      ("specialize", Suite_specialize.suite);
      ("fuzz", Suite_fuzz.suite);
      ("parallel", Suite_parallel.suite);
      ("telemetry", Suite_telemetry.suite);
      ("server", Suite_server.suite);
      ("regalloc", Suite_regalloc.suite);
    ]
