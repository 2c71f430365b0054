(* ggcc — the mini-C compiler driver.

   Compiles mini-C source to assembly for a selected target machine
   (--target vax|risc) with either the table-driven Graham-Glanville
   backend (the paper's contribution) or the PCC-style baseline (VAX
   only), and can run the result under the target's simulator. *)

open Cmdliner
module Driver = Gg_codegen.Driver
module Backend = Gg_codegen.Backend
module Targets = Gg_targets.Targets
module Pcc = Gg_pcc.Pcc
module Sema = Gg_frontc.Sema
module Interp = Gg_ir.Interp
module Simout = Gg_ir.Simout
module Tree = Gg_ir.Tree
module Protocol = Gg_server.Protocol
module Client = Gg_server.Client

type backend = Gg | Pcc_backend

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Table acquisition for the gg backend, in order of preference: an
   explicit -tables file (created on first use), the per-user cache
   keyed by target, grammar digest and (with --specialize FILE|auto)
   profile digest, or an in-process build (--no-cache). *)
let gg_tables ~target ~tables_file ~no_cache ~specialize () =
  let b = Targets.backend_of target in
  let profile =
    Option.map
      (fun spec ->
        if spec = "auto" then Targets.heat_profile target
        else Gg_tablegen.Heat.load spec)
      specialize
  in
  match (tables_file, profile) with
  | Some path, _ ->
    let g = Lazy.force b.Backend.default_grammar in
    let packed =
      if Sys.file_exists path then
        Gg_profile.Trace.phase "tables.load" (fun () ->
            Gg_tablegen.Packed.load ?profile g path)
      else begin
        let p = Gg_tablegen.Cache.build ?profile g in
        Gg_tablegen.Packed.save p path;
        p
      end
    in
    { Driver.grammar = g; packed; backend = b }
  | None, Some profile ->
    Targets.specialized_tables ~use_cache:(not no_cache) ~profile target
  | None, None ->
    if no_cache then Targets.default_tables target
    else Targets.cached_tables target Driver.default_options.Driver.grammar

let compile_source backend ~idioms ~peephole ~regalloc ~heat ~jobs ~tables
    ~explain src =
  let prog = Gg_profile.Trace.phase "frontend" (fun () -> Sema.compile src) in
  match backend with
  | Gg ->
    let options =
      { Driver.default_options with Driver.idioms; peephole; regalloc; heat }
    in
    let tables = Lazy.force tables in
    let out = Driver.compile_program ~options ~tables ~jobs prog in
    let asm =
      if explain then Driver.render_explained tables out
      else out.Driver.assembly
    in
    (asm, prog)
  | Pcc_backend -> ((Pcc.compile_program ~peephole prog).Pcc.assembly, prog)

let handle_errors f =
  try f () with
  | Gg_frontc.Lexer.Lex_error (line, m) ->
    Fmt.epr "lexical error, line %d: %s@." line m;
    exit 1
  | Gg_frontc.Parser.Parse_error (line, m) ->
    Fmt.epr "syntax error, line %d: %s@." line m;
    exit 1
  | Sema.Semantic_error m ->
    Fmt.epr "error: %s@." m;
    exit 1
  | Gg_matcher.Matcher.Reject e ->
    Fmt.epr "code generator: %a@." Gg_matcher.Matcher.pp_error e;
    exit 2
  | Failure m ->
    (* bad/stale -tables files, unwritable outputs, ... *)
    Fmt.epr "error: %s@." m;
    exit 1
  | Sys_error m ->
    (* nonexistent/unwritable -o, --trace-out, --metrics-out, ... *)
    Fmt.epr "error: %s@." m;
    exit 1
  | Client.Server_error m ->
    Fmt.epr "error: %s@." m;
    exit 3
  | Targets.Sim_error m ->
    Fmt.epr "simulator error: %s@." m;
    exit 4
  | Targets.Parse_error (line, m) ->
    Fmt.epr "assembler parse error, line %d: %s@." line m;
    exit 4

(* Arm the requested instruments before compiling and flush their
   expositions afterwards.  The wall-clock timers come on for any of
   them: the trace needs them for nothing, but the metrics sidecar
   embeds the phase table, and --trace-out alongside --profile is the
   common case anyway. *)
let with_telemetry ?(trace_out = None) ?(metrics = false) ?(metrics_out = None)
    ?(explain = false) profile f =
  let any =
    profile || metrics || trace_out <> None || metrics_out <> None
  in
  if any then begin
    Gg_profile.Profile.enabled := true;
    Gg_profile.Profile.reset ()
  end;
  if trace_out <> None then begin
    Gg_profile.Trace.enabled := true;
    Gg_profile.Trace.reset ()
  end;
  if metrics || metrics_out <> None then begin
    Gg_profile.Metrics.enabled := true;
    Gg_profile.Metrics.reset ()
  end;
  if explain then Gg_profile.Profile.provenance_enabled := true;
  (* flush the sidecars even when the compile raises (reject, crash,
     deadline): a failing run is exactly the one whose telemetry the
     operator wants on disk; atomic writes so a crash mid-flush never
     leaves a torn document *)
  Fun.protect ~finally:(fun () ->
      Option.iter Gg_profile.Metrics.write_json_atomic metrics_out;
      Option.iter Gg_profile.Trace.write trace_out)
  @@ fun () ->
  let r = f () in
  if profile then Fmt.epr "%a" Gg_profile.Profile.report ();
  if metrics then Fmt.epr "%a" Gg_profile.Metrics.report ();
  r

let with_profile profile f = with_telemetry profile f

(* Route one compile through a ggccd daemon.  The server runs the same
   compile path with the same options, so the assembly (or the error
   text and exit code) is identical to compiling directly. *)
let server_compile ~socket ~spawn ~ggccd ~backend ~target ~regalloc ~idioms
    ~peephole ~jobs ~explain ~deadline_ms ~fail_inject ~sleep_ms src =
  ignore (Client.ensure ?ggccd ~socket ~spawn () : int option);
  let backend =
    match backend with Gg -> Protocol.Gg | Pcc_backend -> Protocol.Pcc
  in
  let req =
    Protocol.request ~backend ~target ~regalloc ~idioms ~peephole ~explain
      ~jobs ~deadline_ms ~fail_inject ~sleep_ms src
  in
  match Client.compile ~socket req with
  | Protocol.Asm asm -> asm
  | Protocol.Error ((Protocol.Lex | Protocol.Parse), m) ->
    Fmt.epr "%s@." m;
    exit 1
  | Protocol.Error (Protocol.Semantic, m) ->
    Fmt.epr "error: %s@." m;
    exit 1
  | Protocol.Error (Protocol.Reject, m) ->
    Fmt.epr "code generator: %s@." m;
    exit 2
  | Protocol.Error ((Protocol.Internal | Protocol.Bad_request), m) ->
    Fmt.epr "server error: %s@." m;
    exit 3
  | Protocol.Timeout ->
    Fmt.epr "server error: deadline exceeded@.";
    exit 3
  | Protocol.Retry_after _ ->
    (* unreachable: Client.compile turns retry exhaustion into
       Server_error; kept for match exhaustiveness *)
    Fmt.epr "server error: queue full, retries exhausted@.";
    exit 3

let compile_cmd path backend target regalloc heat_file specialize idioms
    peephole jobs output run args tables_file no_cache profile trace_out
    metrics metrics_out explain server spawn ggccd deadline_ms inject_fail
    inject_sleep_ms =
  handle_errors (fun () ->
      (* the baseline emits VAX assembly; refuse the cross pairing here
         rather than shipping it to a daemon that will refuse it too *)
      if backend = Pcc_backend && target <> Backend.Vax then begin
        Fmt.epr "error: the pcc backend targets the VAX only@.";
        exit 1
      end;
      if backend = Pcc_backend && regalloc <> Driver.Stack then begin
        Fmt.epr "error: the pcc backend has no graph-coloring allocator@.";
        exit 1
      end;
      (* heat tables are a local spill-cost input; the wire protocol
         does not carry them *)
      if heat_file <> None && server <> None then begin
        Fmt.epr "error: --heat cannot be combined with --server@.";
        exit 1
      end;
      (* table layout is a local concern; the daemon picks its own
         tables (ggccd --specialize) *)
      if specialize <> None && server <> None then begin
        Fmt.epr "error: --specialize cannot be combined with --server@.";
        exit 1
      end;
      if specialize <> None && backend = Pcc_backend then begin
        Fmt.epr "error: the pcc backend has no parse tables to specialize@.";
        exit 1
      end;
      let heat =
        match heat_file with
        | None -> []
        | Some path -> Gg_codegen.Color.load_heat path
      in
      with_telemetry ~trace_out ~metrics ~metrics_out ~explain profile
      @@ fun () ->
      let src = read_file path in
      let asm, globals =
        match server with
        | Some socket ->
          let asm =
            server_compile ~socket ~spawn ~ggccd ~backend ~target ~regalloc
              ~idioms ~peephole ~jobs ~explain ~deadline_ms
              ~fail_inject:inject_fail ~sleep_ms:inject_sleep_ms src
          in
          (* the simulator needs the global layout; the daemon answered
             Asm, so the local frontend cannot fail on the same source *)
          (asm, lazy (Sema.compile src).Tree.globals)
        | None ->
          let tables =
            lazy (gg_tables ~target ~tables_file ~no_cache ~specialize ())
          in
          let asm, prog =
            Gg_profile.Trace.span ~cat:"file" (Filename.basename path)
              (fun () ->
                compile_source backend ~idioms ~peephole ~regalloc ~heat ~jobs
                  ~tables ~explain src)
          in
          (asm, lazy prog.Tree.globals)
      in
      (match output with
      | Some out ->
        let oc = open_out out in
        output_string oc asm;
        close_out oc
      | None -> if not run then print_string asm);
      if run then begin
        let args = List.map (fun n -> Interp.VInt (Int64.of_int n)) args in
        let out =
          Targets.run_text ~target ~global_types:(Lazy.force globals) asm
            ~entry:"main" args
        in
        List.iter print_endline out.Simout.output;
        Fmt.pr "exit: %a   (%d instructions, %d cycles)@." Interp.pp_value
          out.Simout.return_value out.Simout.insns_executed out.Simout.cycles
      end)

let interp_cmd path args =
  handle_errors (fun () ->
      let prog = Sema.compile (read_file path) in
      let args = List.map (fun n -> Interp.VInt (Int64.of_int n)) args in
      let out = Interp.run prog ~entry:"main" args in
      List.iter print_endline out.Interp.output;
      Fmt.pr "exit: %a@." Interp.pp_value out.Interp.return_value)

let trace_cmd path target tables_file no_cache profile =
  handle_errors (fun () ->
      with_profile profile @@ fun () ->
      let prog = Sema.compile (read_file path) in
      let tables = gg_tables ~target ~tables_file ~no_cache ~specialize:None () in
      let b = Driver.backend tables in
      let g = Driver.grammar tables in
      List.iter
        (fun (f : Tree.func) ->
          Fmt.pr "=== %s ===@." f.Tree.fname;
          let tr =
            Gg_transform.Transform.run ~leaf_need:b.Backend.leaf_need f
          in
          let sem =
            Gg_codegen.Semantics.create ~allocatable:b.Backend.alloc_regs
              ?move:b.Backend.move
              (Gg_codegen.Frame.create ~locals_size:f.Tree.locals_size
                 ~temps:tr.Gg_transform.Transform.temps)
          in
          let cb = b.Backend.callbacks sem g in
          List.iter
            (fun s ->
              match s with
              | Tree.Stree t ->
                Fmt.pr "@.tree: %a@." Tree.pp t;
                let outcome =
                  Gg_matcher.Matcher.run_tree ~trace:true ~grammar:g
                    tables.Driver.packed cb t
                in
                Fmt.pr "%a@."
                  (Gg_matcher.Matcher.pp_trace g)
                  outcome.Gg_matcher.Matcher.trace
              | _ -> ())
            tr.Gg_transform.Transform.func.Tree.body)
        prog.Tree.funcs)

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c")

let backend_arg =
  Arg.(
    value
    & opt (enum [ ("gg", Gg); ("pcc", Pcc_backend) ]) Gg
    & info [ "b"; "backend" ] ~doc:"Backend: table-driven (gg) or PCC-style (pcc).")

let target_arg =
  Arg.(
    value
    & opt (enum [ ("vax", Backend.Vax); ("risc", Backend.Risc) ]) Backend.Vax
    & info [ "t"; "target" ]
        ~doc:
          "Target machine description: $(b,vax) or $(b,risc).  Selects the \
           grammar, instruction table and simulator; the pcc backend is \
           VAX-only.")

let regalloc_arg =
  Arg.(
    value
    & opt (enum [ ("stack", Driver.Stack); ("color", Driver.Color) ]) Driver.Stack
    & info [ "regalloc" ]
        ~doc:
          "Register allocator (gg backend): $(b,stack) is the paper's \
           on-the-fly stack discipline; $(b,color) runs Chaitin/Briggs \
           graph coloring over the emitted stream — liveness, \
           interference, move coalescing, and spilling through frame \
           temporaries weighted by use count, loop depth and production \
           heat.")

let heat_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "heat" ] ~docv:"FILE"
        ~doc:
          "Production firing counts from $(b,mdgtool heat --json), used \
           by $(b,--regalloc color) to bias spill costs toward code \
           produced by hot productions.  Local compiles only.")

let specialize_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "specialize" ] ~docv:"FILE|auto"
        ~doc:
          "Compile with parse tables laid out around a heat profile (gg \
           backend): hot states comb-packed first for locality, cold \
           states behind an exact fallback.  $(docv) is a heat profile \
           from $(b,mdgtool heat --json --out), or $(b,auto) to collect \
           one from the built-in corpus.  The assembly is byte-identical \
           to an unprofiled compile; only matcher probe locality \
           changes.  Profiled tables are cached by (target, grammar \
           digest, profile digest) unless $(b,--no-cache).  Local \
           compiles only.")

let idioms_arg =
  Arg.(
    value & opt bool true
    & info [ "idioms" ] ~doc:"Run the idiom recogniser (gg backend).")

let peephole_arg =
  Arg.(
    value & flag
    & info [ "peephole" ] ~doc:"Run the peephole optimizer on the output.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Compile the program's functions across $(docv) domains (gg \
           backend).  The assembly is byte-identical to a single-domain \
           compile; the tables are shared read-only.")

let output_arg =
  Arg.(
    value & opt (some string) None & info [ "o" ] ~doc:"Write assembly to a file.")

let run_arg =
  Arg.(value & flag & info [ "r"; "run" ] ~doc:"Execute under the simulator.")

let args_arg =
  Arg.(value & opt (list int) [] & info [ "args" ] ~doc:"Integer arguments to main.")

let tables_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "T"; "tables" ] ~docv:"FILE"
        ~doc:
          "Load the packed parse tables from $(docv) (created on first use). \
           Default: the per-user cache keyed by grammar digest \
           (\\$GGCG_CACHE_DIR, \\$XDG_CACHE_HOME/ggcg or ~/.cache/ggcg).")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Rebuild the parse tables in-process; never touch the disk.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print per-phase wall times and matcher/cache counters to stderr \
           (the paper's Fig. 2 instrumentation).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the compile to \
           $(docv) — one begin/end span per file, function, phase and \
           tree match, one track per domain under $(b,-j) N.  Load it in \
           chrome://tracing or Perfetto.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the metric registry to stderr after compiling: named \
           counters, the shift/reduce ratio, and histograms of per-tree \
           match time, reductions per tree, matcher stack high-water and \
           instructions per function.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the metric registry (plus per-phase wall times) as JSON \
           to $(docv).")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Annotate every emitted instruction with the source line and \
           the grammar production ids whose reductions produced it (gg \
           backend).  $(b,--peephole) rewrites the output and drops the \
           annotations.")

let server_arg =
  Arg.(
    value
    & opt ~vopt:(Some (Protocol.default_socket ())) (some string) None
    & info [ "server" ] ~docv:"SOCK"
        ~doc:
          "Compile through the persistent ggccd daemon listening on the \
           Unix-domain socket $(docv) (without a value: \\$GGCG_SOCKET, \
           else a per-user socket in the temp directory).  The daemon \
           holds the packed tables warm, so repeated compiles skip the \
           table load; the output is byte-identical to a direct compile.")

let spawn_arg =
  Arg.(
    value & flag
    & info [ "spawn" ]
        ~doc:
          "With $(b,--server): if no daemon answers on the socket, start \
           ggccd detached and wait for it to come up.")

let ggccd_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ggccd" ] ~docv:"BIN"
        ~doc:
          "Daemon binary for $(b,--spawn) (default: a ggccd next to this \
           executable, else \\$PATH).")

let deadline_arg =
  Arg.(
    value & opt int 0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "With $(b,--server): give up if the daemon has not answered \
           $(docv) milliseconds after accepting the request (0: no \
           deadline).  A missed deadline exits 3.")

let inject_fail_arg =
  Arg.(
    value & flag
    & info [ "inject-fail" ]
        ~doc:
          "Test hook, with $(b,--server): ask the daemon to crash inside \
           its compile barrier, exercising the error-response path.")

let inject_sleep_arg =
  Arg.(
    value & opt int 0
    & info [ "inject-sleep-ms" ] ~docv:"MS"
        ~doc:
          "Test hook, with $(b,--server): ask the worker to stall $(docv) \
           milliseconds before compiling (deterministic deadline tests).")

let () =
  let compile_term =
    Term.(
      const compile_cmd $ path_arg $ backend_arg $ target_arg $ regalloc_arg
      $ heat_arg $ specialize_arg $ idioms_arg
      $ peephole_arg $ jobs_arg $ output_arg $ run_arg $ args_arg $ tables_arg
      $ no_cache_arg $ profile_arg $ trace_out_arg $ metrics_arg
      $ metrics_out_arg $ explain_arg $ server_arg $ spawn_arg $ ggccd_arg
      $ deadline_arg $ inject_fail_arg $ inject_sleep_arg)
  in
  let compile =
    Cmd.v
      (Cmd.info "compile" ~doc:"Compile mini-C to the target's assembly.")
      compile_term
  in
  let interp =
    Cmd.v
      (Cmd.info "interp" ~doc:"Run a program under the IR interpreter.")
      Term.(const interp_cmd $ path_arg $ args_arg)
  in
  let trace =
    Cmd.v
      (Cmd.info "trace" ~doc:"Show the pattern matcher's shift/reduce actions.")
      Term.(
        const trace_cmd $ path_arg $ target_arg $ tables_arg $ no_cache_arg
        $ profile_arg)
  in
  let info =
    Cmd.info "ggcc"
      ~doc:"Mini-C compiler with a table-driven, retargetable code generator"
  in
  exit (Cmd.eval (Cmd.group info ~default:compile_term [ compile; interp; trace ]))
