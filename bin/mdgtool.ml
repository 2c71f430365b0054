(* mdgtool — inspect the VAX machine description grammar and its parse
   tables: statistics, conflicts, chain cycles, syntactic blocks, and a
   production listing.  This is the workbench the paper's authors used
   over 225 times during development (section 7). *)

open Cmdliner
module Grammar = Gg_grammar.Grammar
module Tables = Gg_tablegen.Tables
module Checks = Gg_tablegen.Checks
module Lr0 = Gg_tablegen.Lr0
module Naive = Gg_tablegen.Naive
module Grammar_def = Gg_vax.Grammar_def
module Treelang = Gg_ir.Treelang
module Mdg = Gg_grammar.Mdg
module Schema = Gg_grammar.Schema

let options reverse_ops overfactored with_bridges =
  {
    Grammar_def.default with
    Grammar_def.reverse_ops;
    overfactored;
    with_bridges;
  }

let opts_term =
  let reverse =
    Arg.(
      value & opt bool true
      & info [ "reverse-ops" ] ~doc:"Include reverse-operator patterns.")
  in
  let overfactored =
    Arg.(
      value & flag
      & info [ "overfactored" ]
          ~doc:"Group Plus/Mul into the binop class (section 6.2.1 bug).")
  in
  let no_bridges =
    Arg.(
      value & flag
      & info [ "no-bridges" ] ~doc:"Omit the bridge productions.")
  in
  Term.(
    const (fun r o nb -> options r o (not nb)) $ reverse $ overfactored
    $ no_bridges)

let stats o =
  let schemas = Grammar_def.schemas o in
  let generic = List.length (Schema.expand_all schemas) in
  let n_schemas = List.length schemas in
  let g = Grammar_def.grammar o in
  let gs = Grammar.stats g in
  Fmt.pr "generic schemas:        %d@." n_schemas;
  Fmt.pr "replicated productions: %d@." generic;
  Fmt.pr "grammar: %a@." Grammar.pp_stats gs;
  let t = Tables.build g in
  Fmt.pr "tables:  %a@." Tables.pp_stats (Tables.stats t)

let conflicts o =
  let t = Tables.build (Grammar_def.grammar o) in
  Fmt.pr "%a@." Tables.pp_stats (Tables.stats t)

let target_of_name name =
  match Gg_targets.Targets.of_string name with
  | Some t -> t
  | None ->
    Fmt.epr "error: unknown target %s@." name;
    exit 1

(* a target's machine-description grammar and tree language *)
let description target_name o =
  match target_of_name target_name with
  | Gg_codegen.Backend.Vax -> (Grammar_def.grammar o, Grammar_def.treelang o)
  | Gg_codegen.Backend.Risc ->
    (Gg_risc.Grammar_def.grammar o, Gg_risc.Grammar_def.treelang o)

(* The paper's static promises (section 6.3): the matcher never loops on
   chain rules and never blocks on a legal tree.  Both reports exit 1
   when a promise is broken, so CI can gate on them. *)
let chains o target_name =
  let g, _ = description target_name o in
  let report = Checks.chains g in
  Fmt.pr "silent chain cycles: %d@." (List.length report.Checks.silent_cycles);
  List.iter
    (fun cyc -> Fmt.pr "  LOOP: %a@." Fmt.(list ~sep:(any " -> ") string) cyc)
    report.Checks.silent_cycles;
  Fmt.pr "emitting chain cycles: %d@."
    (List.length report.Checks.emitting_cycles);
  List.iter
    (fun cyc -> Fmt.pr "  cycle: %a@." Fmt.(list ~sep:(any " -> ") string) cyc)
    report.Checks.emitting_cycles;
  if report.Checks.silent_cycles <> [] then exit 1

let blocks o target_name verbose =
  let g, tl = description target_name o in
  let t = Tables.build g in
  let bs = Checks.blocks t ~arity:tl.Treelang.arity ~starts:tl.Treelang.starts in
  Fmt.pr "potential syntactic blocks: %d@." (List.length bs);
  let shown = if verbose then bs else List.filteri (fun i _ -> i < 20) bs in
  List.iter (fun b -> Fmt.pr "%a@." Checks.pp_block b) shown;
  if (not verbose) && List.length bs > 20 then
    Fmt.pr "... (%d more; use -v)@." (List.length bs - 20);
  if bs <> [] then exit 1

let print_grammar o =
  let g = Grammar_def.grammar o in
  Fmt.pr "%a@?" Grammar.pp g

(* statistics for a .mdg file, its %if flags at their default values *)
let file_stats path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let flags = Grammar_def.flags Grammar_def.default
  and types = Grammar_def.types Grammar_def.default in
  match
    let mdg = Mdg.parse text in
    (Mdg.schemas ~flags ~types mdg, Mdg.to_grammar ~flags ~types mdg)
  with
  | exception Mdg.Mdg_error (line, m) ->
    Fmt.epr "%s:%d: %s@." path line m;
    exit 1
  | schemas, g ->
    Fmt.pr "schemas:  %d@." (List.length schemas);
    Fmt.pr "grammar:  %a@." Grammar.pp_stats (Grammar.stats g);
    Fmt.pr "tables:   %a@." Tables.pp_stats (Tables.stats (Tables.build g))

(* the paper's Fig. 1: the terminal and non-terminal vocabulary *)
let vocabulary o =
  let g = Grammar_def.grammar o in
  let symtab = g.Grammar.symtab in
  Fmt.pr "terminals (%d):@." (Gg_grammar.Symtab.n_terms symtab);
  let terms =
    List.init (Gg_grammar.Symtab.n_terms symtab)
      (Gg_grammar.Symtab.term_name symtab)
    |> List.sort String.compare
  in
  List.iteri
    (fun i t ->
      Fmt.pr "%-14s%s" t (if i mod 6 = 5 then "\n" else ""))
    terms;
  Fmt.pr "@.non-terminals (%d):@." (Gg_grammar.Symtab.n_nonterms symtab);
  let nts =
    List.init (Gg_grammar.Symtab.n_nonterms symtab)
      (Gg_grammar.Symtab.nonterm_name symtab)
    |> List.sort String.compare
  in
  List.iteri
    (fun i t -> Fmt.pr "%-14s%s" t (if i mod 6 = 5 then "\n" else ""))
    nts;
  Fmt.pr "@."

(* the last line is the exact packed size, for CI's size gate *)
let pack_stats o target_name =
  let g, _ = description target_name o in
  let t = Tables.build g in
  let stats = Gg_tablegen.Packed.stats (Gg_tablegen.Packed.pack t) in
  Fmt.pr "dense:  %a@." Tables.pp_stats (Tables.stats t);
  Fmt.pr "packed: %a@." Gg_tablegen.Packed.pp_stats stats;
  Fmt.pr "grammar digest: %s@." (Grammar.digest g);
  Fmt.pr "packed_cells: %d@." stats.Gg_tablegen.Packed.packed_cells

(* warm (or inspect) the on-disk table cache ggcc compiles from.  The
   cache directory is shared by every target, so both warming and
   clearing walk the full live list: clearing the VAX entry must not
   leave a stale RISC one behind, and vice versa.  Profiled entries
   (grammar digest + profile digest) are listed distinctly and evicted
   unless their profile is declared live with --profile. *)
let cache o dir clear profiles =
  let live = Gg_targets.Targets.live_cache_entries o in
  let live_profiles =
    List.map (fun f -> Gg_tablegen.Heat.digest (Gg_tablegen.Heat.load f))
      profiles
  in
  if clear then begin
    List.iter
      (fun (target, g) ->
        let file = Gg_tablegen.Cache.path ?dir ~target g in
        if Sys.file_exists file then begin
          Sys.remove file;
          Fmt.pr "removed %s@." file
        end
        else Fmt.pr "no cached %s tables (%s)@." target file)
      live;
    (* also sweep entries matching no live (target, digest) pair —
       unreachable files an edited grammar leaves behind — and
       profiled entries whose profile was not kept alive *)
    match Gg_tablegen.Cache.clear_stale ?dir ~live_profiles live with
    | [] -> Fmt.pr "no stale entries@."
    | evicted ->
      List.iter
        (fun (f, bytes) -> Fmt.pr "evicted stale %s (%d bytes)@." f bytes)
        evicted;
      Fmt.pr "%d stale %s evicted@." (List.length evicted)
        (if List.length evicted = 1 then "entry" else "entries")
  end
  else
    let time_once f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (Unix.gettimeofday () -. t0, r)
    in
    List.iter
      (fun (target, g) ->
        let file = Gg_tablegen.Cache.path ?dir ~target g in
        Fmt.pr "[%s]@." target;
        (match Gg_tablegen.Cache.load ?dir ~target g with
        | Some _ -> Fmt.pr "cache hit:  %s@." file
        | None ->
          let t_build, packed =
            time_once (fun () -> Gg_tablegen.Cache.build g)
          in
          if Gg_tablegen.Cache.store ?dir ~target g packed then
            Fmt.pr "cache miss: built in %.3f s and stored %s@." t_build file
          else
            Fmt.pr "cache miss: built in %.3f s (store failed: %s)@." t_build
              file);
        let t_load, packed =
          time_once (fun () -> Gg_tablegen.Packed.load g file)
        in
        Fmt.pr "load time:  %.1f ms@." (t_load *. 1e3);
        Fmt.pr "tables:     %a@." Gg_tablegen.Packed.pp_stats
          (Gg_tablegen.Packed.stats packed);
        Fmt.pr "digest:     %s@." (Gg_tablegen.Packed.digest packed))
      live;
    (* profiled entries carry a third key component (the profile
       digest) and are listed apart from the profile-free ones above *)
    match
      List.filter
        (fun e -> e.Gg_tablegen.Cache.e_profile_digest <> None)
        (Gg_tablegen.Cache.list ?dir ())
    with
    | [] -> Fmt.pr "@.profiled entries: none@."
    | specs ->
      Fmt.pr "@.profiled entries (%d):@." (List.length specs);
      List.iter
        (fun e ->
          Fmt.pr "  %s: grammar %s, profile %s, %d bytes@."
            e.Gg_tablegen.Cache.e_target e.Gg_tablegen.Cache.e_grammar_digest
            (Option.value ~default:"-" e.Gg_tablegen.Cache.e_profile_digest)
            e.Gg_tablegen.Cache.e_bytes)
        specs

(* which productions actually fire, and how hard: compile the fixed
   mini-C corpus (plus optional generated programs) with production
   coverage on and render the firing counts as a heat report.  This is
   the usage data Samuelsson-style table optimisation wants before
   reordering table rows. *)
let heat o target_name top seeds json out verbose =
  let target = target_of_name target_name in
  Gg_profile.Profile.coverage_enabled := true;
  Gg_profile.Profile.reset_coverage ();
  let tables = Gg_targets.Targets.build_tables target o in
  let g = Gg_codegen.Driver.grammar tables in
  let programs =
    List.map (fun (name, src) -> (name, Gg_frontc.Sema.compile src))
      Gg_frontc.Corpus.fixed_programs
    @ List.init seeds (fun seed ->
          ( Fmt.str "seed-%d" seed,
            Gg_frontc.Sema.lower_program
              (Gg_frontc.Corpus.program ~seed ~functions:3
                 ~stmts_per_function:12) ))
  in
  List.iter
    (fun (_, prog) ->
      ignore (Gg_codegen.Driver.compile_program ~tables prog))
    programs;
  let counts = Gg_profile.Profile.production_counts () in
  (* canonical form: duplicates merged, count desc then id asc — two
     runs over the same corpus render byte-identical profiles, so the
     profile digest (the profiled-table cache key) is stable *)
  let profile = Gg_tablegen.Heat.of_counts counts in
  let total = profile.Gg_tablegen.Heat.total in
  let sorted = profile.Gg_tablegen.Heat.counts in
  (match out with
  | None -> ()
  | Some path ->
    Gg_tablegen.Heat.save profile path;
    Fmt.pr "wrote %s (%d productions, profile digest %s)@." path
      (List.length sorted)
      (Gg_tablegen.Heat.digest profile));
  if json then begin
    (* machine-readable firing counts: the spill-cost input of
       [ggcc --regalloc color --heat FILE] and the layout input of
       [mdgtool specialize] *)
    if out = None then print_string (Gg_tablegen.Heat.to_json_string profile);
    exit 0
  end;
  if out <> None then exit 0;
  let n = Grammar.n_productions g in
  let fired = List.length sorted in
  Fmt.pr "corpus: %d programs, %d reductions, %d distinct productions@."
    (List.length programs) total fired;
  Fmt.pr "productions fired: %d of %d (%.1f%%); %d never fired@." fired n
    (100. *. float_of_int fired /. float_of_int (max 1 n))
    (n - fired);
  (* the smallest production set covering 50% / 90% of all reductions *)
  let covering share =
    let target = int_of_float (share *. float_of_int total) in
    let rec go k acc = function
      | (_, c) :: rest when acc < target -> go (k + 1) (acc + c) rest
      | _ -> k
    in
    go 0 0 sorted
  in
  if total > 0 then
    Fmt.pr "coverage: top %d productions fire 50%% of reductions, top %d \
            fire 90%%@."
      (covering 0.5) (covering 0.9);
  let max_count = match sorted with (_, c) :: _ -> c | [] -> 1 in
  let cum = ref 0 in
  Fmt.pr "@. count  share   cum  production@.";
  List.iteri
    (fun i (id, c) ->
      cum := !cum + c;
      if i < top then begin
        let width = max 1 (c * 30 / max 1 max_count) in
        Fmt.pr "%6d  %5.1f%% %5.1f%%  %a@.%15s%s@." c
          (100. *. float_of_int c /. float_of_int (max 1 total))
          (100. *. float_of_int !cum /. float_of_int (max 1 total))
          (Grammar.pp_production g) (Grammar.production g id) ""
          (String.make width '#')
      end)
    sorted;
  if List.length sorted > top then
    Fmt.pr "... (%d more; raise --top)@." (List.length sorted - top);
  if verbose then begin
    let fired_ids = List.map fst counts in
    Fmt.pr "@.never fired:@.";
    for id = 0 to n - 1 do
      if not (List.mem id fired_ids) then
        Fmt.pr "  %a@." (Grammar.pp_production g) (Grammar.production g id)
    done
  end

(* profile-guided table layout: take a heat profile (mdgtool heat
   --json --out), pack the tables around it, prove cell-for-cell parity
   against the dense tables, and report the layout before and after.
   The result lands in the shared table cache keyed by (target, grammar
   digest, profile digest) — or in --out FILE.  The last line is the
   exact profiled size, for CI's size gate. *)
let specialize o target_name profile_path dir out =
  let target = target_of_name target_name in
  let profile =
    match Gg_tablegen.Heat.load profile_path with
    | p -> p
    | exception (Failure m | Sys_error m) ->
      Fmt.epr "error: cannot load profile %s: %s@." profile_path m;
      exit 1
  in
  let b = Gg_targets.Targets.backend_of target in
  let g =
    if o = Grammar_def.default then
      Lazy.force b.Gg_codegen.Backend.default_grammar
    else b.Gg_codegen.Backend.grammar_of o
  in
  let dense = Tables.build g in
  let packed = Gg_tablegen.Packed.pack dense in
  let spec = Gg_tablegen.Packed.pack ~profile dense in
  (match Gg_tablegen.Packed.verify spec dense with
  | Ok () -> ()
  | Error m ->
    Fmt.epr "error: profiled tables failed verification: %s@." m;
    exit 1);
  let st = Gg_tablegen.Packed.stats spec in
  Fmt.pr "target:         %s@." target_name;
  Fmt.pr "profile:        %a@." Gg_tablegen.Heat.pp profile;
  Fmt.pr "profile-free:   %a@." Gg_tablegen.Packed.pp_stats
    (Gg_tablegen.Packed.stats packed);
  Fmt.pr "profiled:       %a@." Gg_tablegen.Packed.pp_stats st;
  Fmt.pr "verification:   ok (cell-for-cell parity with the dense tables)@.";
  (match out with
  | Some path ->
    Gg_tablegen.Packed.save spec path;
    Fmt.pr "wrote %s@." path
  | None ->
    let target = Gg_targets.Targets.name target in
    if Gg_tablegen.Cache.store ?dir ~target g spec then
      Fmt.pr "cached %s@." (Gg_tablegen.Cache.path ?dir ~target ~profile g)
    else Fmt.epr "warning: could not store in the table cache@.");
  Fmt.pr "packed_cells: %d@." st.Gg_tablegen.Packed.packed_cells

(* -- the ops plane: top + trace-merge ------------------------------------- *)

module Json = Gg_profile.Json

(* one admin conversation: connect, send the command line, read the
   whole reply (the daemon closes after answering) *)
let admin_query sock cmd =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
    Fmt.epr "error: cannot connect to admin socket %s: %s@." sock
      (Unix.error_message e);
    exit 1);
  let line = cmd ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line) : int);
  let b = Buffer.create 1024 in
  let buf = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b buf 0 n;
      drain ()
    | exception Unix.Unix_error _ -> ()
  in
  drain ();
  Buffer.contents b

let counter stats name =
  Option.bind (Json.member "counters" stats) (Json.member name)
  |> Fun.flip Option.bind Json.to_int
  |> Option.value ~default:0

let histo stats name =
  match Option.bind (Json.member "histograms" stats) Json.to_list with
  | None -> None
  | Some hs ->
    List.find_opt
      (fun h ->
        Option.bind (Json.member "name" h) Json.to_str = Some name)
      hs

let histo_quantile stats name q =
  match Option.bind (histo stats name) (Json.member q) with
  | Some v -> Option.value ~default:0. (Json.to_float v)
  | None -> 0.

let top_cmd sock interval_ms count =
  let parse_stats () =
    match Json.parse (admin_query sock "stats") with
    | j -> j
    | exception Json.Parse_error m ->
      Fmt.epr "error: unreadable stats from %s: %s@." sock m;
      exit 1
  in
  Fmt.pr "%8s %8s %6s %6s %6s %6s %9s %9s %9s %9s@." "served" "rps" "ok"
    "err" "tmout" "rej" "q-depth" "wait-p99" "lat-p50" "lat-p99";
  let prev = ref None in
  let tick i =
    let stats = parse_stats () in
    let served = counter stats "server.requests_total" in
    let rps =
      match !prev with
      | Some p when served >= p ->
        Fmt.str "%.1f"
          (float_of_int (served - p) /. (float_of_int interval_ms /. 1e3))
      | _ -> "-"
    in
    prev := Some served;
    Fmt.pr "%8d %8s %6d %6d %6d %6d %9d %8.1fm %8.1fm %8.1fm@." served rps
      (counter stats "server.responses_ok")
      (counter stats "server.responses_error")
      (counter stats "server.timeouts_total")
      (counter stats "server.rejected_total")
      (counter stats "server.queue_depth")
      (histo_quantile stats "server.queue_wait_us" "p99" /. 1e3)
      (histo_quantile stats "server.request_latency_us" "p50" /. 1e3)
      (histo_quantile stats "server.request_latency_us" "p99" /. 1e3);
    if count = 0 || i + 1 < count then begin
      Unix.sleepf (float_of_int interval_ms /. 1e3);
      true
    end
    else false
  in
  let i = ref 0 in
  while tick !i do
    incr i
  done

(* Stitch a client trace and a server trace onto one timeline.  Each
   document's spans are stamped relative to its own process epoch; the
   exported epochUs rebases both onto absolute time, and the earlier
   epoch becomes the merged zero so timestamps stay small.  Each input
   keeps its events under its own pid with a process_name metadata row,
   so Perfetto shows "client" above "server" with the request-id args
   intact — the queue-wait gap is readable straight off the timeline. *)
let trace_merge_cmd traces out =
  let load path =
    match Json.parse_file path with
    | j ->
      let epoch =
        match Option.bind (Json.member "epochUs" j) Json.to_float with
        | Some e -> e
        | None ->
          Fmt.epr "error: %s has no epochUs (not a merged-trace input?)@." path;
          exit 1
      in
      let events =
        match Option.bind (Json.member "traceEvents" j) Json.to_list with
        | Some evs -> evs
        | None ->
          Fmt.epr "error: %s has no traceEvents@." path;
          exit 1
      in
      (path, epoch, events)
    | exception Json.Parse_error m ->
      Fmt.epr "error: cannot parse %s: %s@." path m;
      exit 1
    | exception Sys_error m ->
      Fmt.epr "error: %s@." m;
      exit 1
  in
  let loaded = List.map load traces in
  let base =
    List.fold_left (fun acc (_, e, _) -> Float.min acc e) Float.infinity loaded
  in
  let set k v obj =
    match obj with
    | Json.Obj members ->
      if List.mem_assoc k members then
        Json.Obj (List.map (fun (k', v') -> (k', if k' = k then v else v')) members)
      else Json.Obj (members @ [ (k, v) ])
    | other -> other
  in
  let rebase pid shift ev =
    let ev =
      match Option.bind (Json.member "ts" ev) Json.to_float with
      | Some ts -> set "ts" (Json.Num (ts +. shift)) ev
      | None -> ev
    in
    set "pid" (Json.Num (float_of_int pid)) ev
  in
  let merged =
    List.concat
      (List.mapi
         (fun i (path, epoch, events) ->
           let pid = i + 1 in
           let name = Filename.remove_extension (Filename.basename path) in
           Json.Obj
             [
               ("name", Json.Str "process_name");
               ("ph", Json.Str "M");
               ("pid", Json.Num (float_of_int pid));
               ("args", Json.Obj [ ("name", Json.Str name) ]);
             ]
           :: List.map (rebase pid (epoch -. base)) events)
         loaded)
  in
  let doc =
    Json.Obj
      [
        ("traceEvents", Json.Arr merged);
        ("displayTimeUnit", Json.Str "ms");
      ]
  in
  let write oc = output_string oc (Json.to_string doc ^ "\n") in
  match out with
  | None -> write stdout
  | Some path ->
    let oc = open_out path in
    write oc;
    close_out oc;
    Fmt.pr "merged %d events from %d traces into %s@."
      (List.length merged - List.length loaded)
      (List.length loaded) path

let verbose_term =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Show all results.")

let target_term verb =
  Arg.(
    value & opt string "vax"
    & info [ "target" ] ~docv:"TARGET"
        ~doc:(verb ^ " this target's machine description (vax or risc)."))

let cmd_of name doc term = Cmd.v (Cmd.info name ~doc) term

let () =
  let cmds =
    [
      cmd_of "stats" "Grammar and table statistics (paper section 8)."
        Term.(const stats $ opts_term);
      cmd_of "conflicts" "Conflict-resolution statistics."
        Term.(const conflicts $ opts_term);
      cmd_of "chains"
        "Chain-production cycle report; exits 1 on a silent cycle."
        Term.(const chains $ opts_term $ target_term "Check");
      cmd_of "blocks"
        "Potential syntactic blocks; exits 1 if there is any."
        Term.(const blocks $ opts_term $ target_term "Check" $ verbose_term);
      cmd_of "print" "List all replicated productions."
        Term.(const print_grammar $ opts_term);
      cmd_of "pack" "Table compression statistics."
        Term.(const pack_stats $ opts_term $ target_term "Pack");
      cmd_of "cache"
        "Warm the on-disk packed-table cache (what ggcc compiles from), \
         for every target."
        Term.(
          const cache $ opts_term
          $ Arg.(
              value
              & opt (some string) None
              & info [ "dir" ] ~docv:"DIR" ~doc:"Cache directory override.")
          $ Arg.(
              value & flag
              & info [ "clear" ]
                  ~doc:
                    "Remove every target's cached tables for this grammar and \
                     evict stale entries (tables whose target or grammar \
                     digest no longer matches, profiled tables whose \
                     profile is not kept live with $(b,--profile), orphaned \
                     temp files), reporting each eviction.")
          $ Arg.(
              value & opt_all file []
              & info [ "profile" ] ~docv:"FILE"
                  ~doc:
                    "With $(b,--clear): keep profiled entries whose \
                     profile digest matches $(docv) (repeatable)."));
      cmd_of "vocabulary" "The terminal/non-terminal vocabulary (paper Fig. 1)."
        Term.(const vocabulary $ opts_term);
      cmd_of "heat"
        "Production firing-count heat report over the mini-C corpus."
        Term.(
          const heat $ opts_term
          $ Arg.(
              value & opt string "vax"
              & info [ "target" ] ~docv:"TARGET"
                  ~doc:
                    "Collect the profile with this target's tables \
                     (production ids are grammar-specific).")
          $ Arg.(
              value & opt int 25
              & info [ "top" ] ~docv:"N"
                  ~doc:"Show the $(docv) hottest productions.")
          $ Arg.(
              value & opt int 0
              & info [ "seeds" ] ~docv:"N"
                  ~doc:
                    "Also compile $(docv) generated corpus programs \
                     besides the fixed suite.")
          $ Arg.(
              value & flag
              & info [ "json" ]
                  ~doc:
                    "Emit the firing counts as JSON \
                     ({\"total\": N, \"productions\": [{\"id\": I, \
                     \"count\": C}, ...]}) for $(b,ggcc --regalloc color \
                     --heat) and $(b,mdgtool specialize).")
          $ Arg.(
              value
              & opt (some string) None
              & info [ "out" ] ~docv:"FILE"
                  ~doc:
                    "Write the canonical JSON profile to $(docv); two runs \
                     over the same corpus write byte-identical files.")
          $ verbose_term);
      cmd_of "specialize"
        "Pack the tables around a heat profile and prove cell-for-cell \
         parity (profile-guided specialization)."
        Term.(
          const specialize $ opts_term
          $ Arg.(
              value & opt string "vax"
              & info [ "target" ] ~docv:"TARGET"
                  ~doc:"Specialize this target's tables.")
          $ Arg.(
              required
              & pos 0 (some file) None
              & info [] ~docv:"PROFILE.json"
                  ~doc:"Heat profile from $(b,mdgtool heat --json --out).")
          $ Arg.(
              value
              & opt (some string) None
              & info [ "dir" ] ~docv:"DIR" ~doc:"Cache directory override.")
          $ Arg.(
              value
              & opt (some string) None
              & info [ "out" ] ~docv:"FILE"
                  ~doc:
                    "Write a ggcg-tables-v4 file to $(docv) instead of the \
                     table cache."));
      cmd_of "file"
        "Statistics for an external .mdg machine description file."
        Term.(
          const file_stats
          $ Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mdg"));
      cmd_of "top"
        "Live ggccd dashboard: poll the admin socket and print served, \
         rps, outcome counts, queue depth and latency quantiles."
        Term.(
          const top_cmd
          $ Arg.(
              required
              & pos 0 (some string) None
              & info [] ~docv:"ADMIN_SOCK"
                  ~doc:"The daemon's --admin-socket path.")
          $ Arg.(
              value & opt int 1000
              & info [ "interval-ms" ] ~docv:"MS"
                  ~doc:"Milliseconds between polls.")
          $ Arg.(
              value & opt int 0
              & info [ "count" ] ~docv:"N"
                  ~doc:"Stop after $(docv) polls (0: poll forever)."));
      cmd_of "trace-merge"
        "Merge Chrome traces from different processes (a ggcc client and \
         the ggccd daemon) onto one absolute timeline via their epochUs."
        Term.(
          const trace_merge_cmd
          $ Arg.(
              non_empty & pos_all file []
              & info [] ~docv:"TRACE.json"
                  ~doc:"Trace files written by --trace-out.")
          $ Arg.(
              value
              & opt (some string) None
              & info [ "o"; "output" ] ~docv:"FILE"
                  ~doc:"Write the merged trace to $(docv) (default: stdout)."));
    ]
  in
  let info = Cmd.info "mdgtool" ~doc:"VAX machine-description workbench" in
  exit (Cmd.eval (Cmd.group info cmds))
