(* ggfuzz — differential fuzzing of the code generators.

   Generates seed-driven control-flow IR programs and checks, for every
   seed, that the table-driven backend (per target and register
   allocator) and the PCC-style baseline agree with the reference interpreter on all
   observables.  Divergences are greedily shrunk and persisted to a
   corpus of re-runnable reproducers.  Production-coverage accounting
   reports which grammar productions the campaign exercised. *)

open Cmdliner
module Campaign = Gg_fuzz.Campaign
module Coverage = Gg_fuzz.Coverage
module Oracle = Gg_fuzz.Oracle
module Treegen = Gg_ir.Treegen
module Driver = Gg_codegen.Driver
module Backend = Gg_codegen.Backend

let parse_seeds s =
  match String.index_opt s '.' with
  | Some i
    when i + 1 < String.length s
         && s.[i + 1] = '.'
         && (match
               ( int_of_string_opt (String.sub s 0 i),
                 int_of_string_opt
                   (String.sub s (i + 2) (String.length s - i - 2)) )
             with
            | Some _, Some _ -> true
            | _ -> false) ->
    let lo = int_of_string (String.sub s 0 i) in
    let hi = int_of_string (String.sub s (i + 2) (String.length s - i - 2)) in
    if lo > hi then Error (`Msg "empty seed range") else Ok (lo, hi)
  | _ -> (
    match int_of_string_opt s with
    | Some n -> Ok (n, n)
    | None -> Error (`Msg "expected SEED or LO..HI"))

let seeds_conv =
  Arg.conv
    ( parse_seeds,
      fun ppf (lo, hi) -> Fmt.pf ppf "%d..%d" lo hi )

let seeds_arg =
  Arg.(
    value
    & opt seeds_conv (0, 100)
    & info [ "s"; "seeds" ] ~docv:"LO..HI"
        ~doc:"Inclusive seed range to fuzz (a single seed is also accepted).")

let regalloc_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("stack", Campaign.Rstack);
             ("color", Campaign.Rcolor);
             ("both", Campaign.Rboth);
           ])
        Campaign.Rstack
    & info [ "regalloc" ]
        ~doc:
          "Register allocator(s) under test: $(b,stack), $(b,color) or \
           $(b,both).  With $(b,both) every seed also compiles through \
           the graph-coloring allocator, so a stack/color disagreement \
           on any observable is a divergence.")

let target_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("vax", [ Backend.Vax ]);
             ("risc", [ Backend.Risc ]);
             ("both", [ Backend.Vax; Backend.Risc ]);
           ])
        [ Backend.Vax ]
    & info [ "t"; "target" ]
        ~doc:
          "Backend(s) under test: $(b,vax), $(b,risc) or $(b,both).  With \
           $(b,both) the oracle is differential across machine descriptions; \
           the PCC baseline joins only when the VAX is selected.")

let stmts_arg =
  Arg.(
    value
    & opt int Treegen.default_config.Treegen.stmts
    & info [ "stmts" ] ~doc:"Statement budget per function.")

let depth_arg =
  Arg.(
    value
    & opt int Treegen.default_config.Treegen.depth
    & info [ "depth" ] ~doc:"Maximum expression-tree depth.")

let nest_arg =
  Arg.(
    value
    & opt int Treegen.default_config.Treegen.max_nest
    & info [ "nest" ] ~doc:"Maximum if/while nesting depth.")

let functions_arg =
  Arg.(
    value
    & opt int Treegen.default_config.Treegen.functions
    & info [ "functions" ] ~doc:"Number of callee functions besides main.")

let straight_arg =
  Arg.(
    value & flag
    & info [ "straight-line" ]
        ~doc:"Generate straight-line assignment programs only (the pre-fuzzer \
              generator).")

let corpus_arg =
  Arg.(
    value
    & opt string Campaign.default_config.Campaign.corpus_dir
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:"Directory for divergence reproducers (empty string disables \
              persistence).")

let coverage_arg =
  Arg.(
    value & flag
    & info [ "coverage" ]
        ~doc:"Print the production-coverage report, compared against the \
              fixed-corpus baseline.")

let verbose_cov_arg =
  Arg.(
    value & flag
    & info [ "coverage-verbose" ]
        ~doc:"With $(b,--coverage): also list every never-fired production.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-divergence progress.")

let shrink_checks_arg =
  Arg.(
    value
    & opt int Campaign.default_config.Campaign.max_shrink_checks
    & info [ "shrink-checks" ] ~doc:"Oracle-check budget for the shrinker.")

let jobs_arg =
  Arg.(
    value
    & opt int Campaign.default_config.Campaign.jobs
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Compile each generated program's functions across $(docv) domains \
           (shrinking stays single-threaded).  Divergence results are \
           independent of $(docv): parallel assembly is byte-identical.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Print per-phase wall times and matcher counters for the whole \
              campaign to stderr.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event JSON timeline of the campaign's \
              compiles to $(docv).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the metric registry (counters and histograms) to stderr \
              after the campaign.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the metric registry as JSON to $(docv).")

let fuzz_cmd (seed_lo, seed_hi) regalloc targets stmts depth max_nest
    functions straight_line corpus_dir coverage verbose_cov quiet shrink_checks
    jobs profile trace_out metrics metrics_out =
  (* run the campaign under the telemetry wrapper but exit after it, so
     a divergence still flushes the trace/metrics files *)
  let n_div =
    Gg_profile.Telemetry.with_telemetry ~profile ~metrics ?trace_out
      ?metrics_out
    @@ fun () ->
  let cfg =
    {
      Campaign.seed_lo;
      seed_hi;
      gen = { Treegen.stmts; depth; max_nest; functions };
      regalloc;
      targets;
      straight_line;
      corpus_dir;
      max_shrink_checks = shrink_checks;
      jobs;
      log = (if quiet then None else Some Fmt.string);
    }
  in
  let result = Campaign.run cfg in
  let n_div = List.length result.Campaign.divergences in
  Fmt.pr "ggfuzz: %d programs, %d divergence%s, %.1fs@."
    result.Campaign.programs n_div
    (if n_div = 1 then "" else "s")
    result.Campaign.seconds;
  List.iter
    (fun (d : Campaign.divergence) ->
      Fmt.pr "  seed %d: %a; reproducer has %d statement%s%a@."
        d.Campaign.seed Oracle.pp_failure d.Campaign.failure
        d.Campaign.shrunk_stmts
        (if d.Campaign.shrunk_stmts = 1 then "" else "s")
        Fmt.(option (fmt " (%s)"))
        d.Campaign.dump)
    result.Campaign.divergences;
  if coverage then begin
    (* production ids are per-grammar, so the coverage report is pinned
       to the first selected target's grammar *)
    let tables = Gg_targets.Targets.default_tables (List.hd targets) in
    let g = Driver.grammar tables in
    let baseline = Coverage.baseline tables in
    let report = Coverage.report g ~fired:result.Campaign.fired in
    Fmt.pr "%a" (Coverage.pp_report ~baseline ~verbose:verbose_cov g) report
  end;
  n_div
  in
  if n_div > 0 then exit 1

let replay_cmd path regalloc targets =
  match Campaign.replay ~regalloc ~targets path with
  | Ok outcome ->
    Fmt.pr "%s: all backends agree (return value %a)@." path
      Gg_ir.Interp.pp_value outcome.Gg_ir.Interp.return_value;
  | Error f ->
    Fmt.pr "%s: still diverges: %a@." path Oracle.pp_failure f;
    exit 1
  | exception Oracle.Invalid m ->
    Fmt.epr "%s: program no longer valid: %s@." path m;
    exit 2

let replay_path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DUMP.ir")

let () =
  let fuzz_term =
    Term.(
      const fuzz_cmd $ seeds_arg $ regalloc_arg $ target_arg
      $ stmts_arg
      $ depth_arg $ nest_arg $ functions_arg $ straight_arg $ corpus_arg
      $ coverage_arg $ verbose_cov_arg $ quiet_arg $ shrink_checks_arg
      $ jobs_arg $ profile_arg $ trace_out_arg $ metrics_arg $ metrics_out_arg)
  in
  let fuzz =
    Cmd.v
      (Cmd.info "fuzz" ~doc:"Run a differential fuzz campaign over a seed range.")
      fuzz_term
  in
  let replay =
    Cmd.v
      (Cmd.info "replay"
         ~doc:"Re-run a persisted reproducer ($(b,.ir) dump) through the oracle.")
      Term.(
        const replay_cmd $ replay_path_arg $ regalloc_arg
        $ target_arg)
  in
  let info =
    Cmd.info "ggfuzz"
      ~doc:"Differential fuzzing of the table-driven code generator"
  in
  exit (Cmd.eval (Cmd.group info ~default:fuzz_term [ fuzz; replay ]))
