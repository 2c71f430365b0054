(* The paper's experiment in miniature: compile the same programs with
   the table-driven backend and the PCC-style baseline and compare the
   code side by side, plus size and (simulated) cycle measurements.

     dune exec examples/compare_backends.exe *)

module Driver = Gg_codegen.Driver
module Pcc = Gg_pcc.Pcc
module Simout = Gg_ir.Simout

let simulate = Gg_targets.Targets.run_text ~target:Gg_codegen.Backend.Vax

let source =
  {|
int a[8];
int key;
int hits;

int main() {
  int i;
  for (i = 0; i < 8; i++) a[i] = (i * 5 + 2) % 7;
  key = 2;
  hits = 0;
  for (i = 0; i < 8; i++) if (a[i] == key) hits++;
  print(hits);
  return hits;
}
|}

let () =
  let program = Gg_frontc.Sema.compile source in
  let gg = Driver.compile_program program in
  let pcc = Pcc.compile_program program in
  Fmt.pr "=== table-driven backend (the paper's) ===@.%s@."
    gg.Driver.assembly;
  Fmt.pr "=== PCC-style baseline ===@.%s@." pcc.Pcc.assembly;
  let run asm =
    simulate asm ~global_types:program.Gg_ir.Tree.globals ~entry:"main" []
  in
  let og = run gg.Driver.assembly in
  let op = run pcc.Pcc.assembly in
  Fmt.pr "=== comparison (paper section 8) ===@.";
  Fmt.pr "                      table-driven   PCC-style@.";
  Fmt.pr "lines of assembly:    %12d   %9d@." (Driver.total_lines gg)
    (Pcc.total_lines pcc);
  Fmt.pr "static cycles:        %12d   %9d@." (Driver.total_cycles gg)
    (Pcc.total_cycles pcc);
  Fmt.pr "dynamic instructions: %12d   %9d@." og.Simout.insns_executed
    op.Simout.insns_executed;
  Fmt.pr "dynamic cycles:       %12d   %9d@." og.Simout.cycles
    op.Simout.cycles;
  Fmt.pr "results agree:        %b (both returned %a)@."
    (Gg_ir.Interp.value_equal og.Simout.return_value op.Simout.return_value)
    Gg_ir.Interp.pp_value og.Simout.return_value
