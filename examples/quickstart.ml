(* Quickstart: compile a mini-C program with the table-driven code
   generator and run it under the VAX simulator.

     dune exec examples/quickstart.exe *)

let source =
  {|
int squares[10];
int total;

int main() {
  int i;
  total = 0;
  for (i = 0; i < 10; i++) squares[i] = i * i;
  for (i = 0; i < 10; i++) total += squares[i];
  print(total);
  return total;
}
|}

let () =
  (* front end: mini-C source -> typed IR forest (the paper's "first
     pass" interface) *)
  let program = Gg_frontc.Sema.compile source in

  (* back end: Phase 1 tree transformation, table-driven pattern
     matching, instruction selection with idioms, register management,
     assembly output *)
  let compiled = Gg_codegen.Driver.compile_program program in
  print_string "--- generated VAX assembly ---\n";
  print_string compiled.Gg_codegen.Driver.assembly;

  (* validation: execute the assembly and compare with the reference
     interpreter *)
  let simulated =
    Gg_targets.Targets.run_text ~target:Gg_codegen.Backend.Vax
      compiled.Gg_codegen.Driver.assembly
      ~global_types:program.Gg_ir.Tree.globals ~entry:"main" []
  in
  let interpreted = Gg_ir.Interp.run program ~entry:"main" [] in
  Fmt.pr "--- execution ---@.";
  Fmt.pr "simulator:   returned %a, printed %a@." Gg_ir.Interp.pp_value
    simulated.Gg_ir.Simout.return_value
    Fmt.(Dump.list string)
    simulated.Gg_ir.Simout.output;
  Fmt.pr "interpreter: returned %a, printed %a@." Gg_ir.Interp.pp_value
    interpreted.Gg_ir.Interp.return_value
    Fmt.(Dump.list string)
    interpreted.Gg_ir.Interp.output;
  Fmt.pr "agreement:   %b@."
    (Gg_ir.Interp.value_equal simulated.Gg_ir.Simout.return_value
       interpreted.Gg_ir.Interp.return_value)
