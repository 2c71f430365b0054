(* The validation-suite experiment (paper section 8: "our code generator
   produces code that passes validation suites"): run the fixed
   benchmark programs and a batch of random programs through the full
   differential harness — IR interpreter vs both compiled backends under
   the simulator — and report a pass/fail table.

     dune exec examples/validation.exe *)

open Gg_ir
module Driver = Gg_codegen.Driver
module Pcc = Gg_pcc.Pcc
module Simout = Gg_ir.Simout

let simulate = Gg_targets.Targets.run_text ~target:Gg_codegen.Backend.Vax

let agree (i : Interp.outcome) (s : Simout.t) =
  Interp.value_equal s.Simout.return_value i.Interp.return_value
  && s.Simout.output = i.Interp.output
  && List.length s.Simout.globals = List.length i.Interp.globals
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> n1 = n2 && Interp.value_equal v1 v2)
       s.Simout.globals i.Interp.globals

let validate name prog =
  let reference = Interp.run ~max_steps:10_000_000 prog ~entry:"main" [] in
  let check asm =
    agree reference
      (simulate ~max_steps:40_000_000 asm
         ~global_types:prog.Tree.globals ~entry:"main" [])
  in
  let gg_ok = check (Driver.compile_program prog).Driver.assembly in
  let pcc_ok = check (Pcc.compile_program prog).Pcc.assembly in
  Fmt.pr "  %-16s table-driven %s   pcc %s@." name
    (if gg_ok then "PASS" else "FAIL")
    (if pcc_ok then "PASS" else "FAIL");
  gg_ok && pcc_ok

let () =
  Fmt.pr "fixed validation programs:@.";
  let ok1 =
    List.for_all
      (fun (name, src) -> validate name (Gg_frontc.Sema.compile src))
      Gg_frontc.Corpus.fixed_programs
  in
  Fmt.pr "random programs (30 seeds):@.";
  let ok2 = ref true in
  for seed = 1 to 30 do
    let prog =
      Gg_frontc.Sema.lower_program
        (Gg_frontc.Corpus.program ~seed ~functions:3 ~stmts_per_function:10)
    in
    if not (validate (Fmt.str "random-%02d" seed) prog) then ok2 := false
  done;
  Fmt.pr "@.validation %s@." (if ok1 && !ok2 then "PASSED" else "FAILED");
  if not (ok1 && !ok2) then exit 1
