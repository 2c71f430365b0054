(* ledger: the repository's benchmark.

   ledger --workload W --seed N --seconds S --trace 0|1

   Workloads: compile-vax and compile-risc-color compile seeded random
   C programs to assembly in process; serve-mixed drives a real ggccd
   in a closed loop.  Correctness is checked before any speed is
   reported, and the last line of standard output is one JSON object
   with the run's metrics: the end-to-end ones with --trace 0, the
   per-layer ones from a traced run with --trace 1. *)

let () =
  let a = Common.parse_args Sys.argv in
  (match a.Common.workload with
  | "compile-vax" -> Compile_run.run a Compile_run.vax
  | "compile-risc-color" -> Compile_run.run a Compile_run.risc_color
  | "serve-mixed" -> Serve_run.run a
  | w -> Common.die "unknown workload %s\nusage: %s" w Common.usage);
  Common.finish a
