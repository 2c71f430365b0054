(* The exact report: every deterministic result of the paper's
   evaluation (grammar and table counts, code size and cycles, idioms,
   coverage, the Appendix trace) and of the later experiments
   (retargeting, register allocation, profile-guided layout, -j
   determinism), printed once, at fixed sizes.  It takes no flags and
   prints no times, paths or domain counts, so its output is
   byte-identical on any machine.

   `dune runtest` diffs the output against report.expected, so every
   number is gated on exact equality; `dune promote` accepts an
   intended change.  The relational claims (color never loses to stack,
   the profiled table is no larger, hot probes outnumber cold ones,
   verification, byte-identity) are asserted here as well: when one
   fails the program exits 1, and there is no output to promote.

   Run from the repository root (it reads examples/c):
     dune exec bench/report.exe *)

open Gg_ir
module Grammar = Gg_grammar.Grammar
module Tables = Gg_tablegen.Tables
module Packed = Gg_tablegen.Packed
module Matcher = Gg_matcher.Matcher
module Transform = Gg_transform.Transform
module Phase1c = Gg_transform.Phase1c
module Grammar_def = Gg_vax.Grammar_def
module Driver = Gg_codegen.Driver
module Backend = Gg_codegen.Backend
module Parallel = Gg_codegen.Parallel
module Targets = Gg_targets.Targets
module Pcc = Gg_pcc.Pcc
module Sema = Gg_frontc.Sema
module Corpus = Gg_frontc.Corpus
module Metrics = Gg_profile.Metrics
module Profile = Gg_profile.Profile
module Heat = Gg_tablegen.Heat

let section title = Fmt.pr "@.=== %s ===@." title
let row fmt = Fmt.pr fmt

(* relational gates: checked after every section has printed *)
let failed = ref []
let gate name ok = if not ok then failed := name :: !failed

let pct a b = 100. *. float_of_int a /. float_of_int (max 1 b)
let ratio a b = float_of_int a /. float_of_int (max 1 b)

(* a named counter of the metrics registry, 0 when never bumped *)
let counter name =
  Option.value ~default:0 (List.assoc_opt name (Metrics.named_counters ()))

let null_cb : unit Matcher.callbacks =
  Matcher.callbacks
    ~on_shift:(fun _ -> ())
    ~on_reduce:(fun _ _ -> ())
    ~choose:(fun _ _ -> 0)
    ()

(* -- corpora ------------------------------------------------------------------ *)

let corpus_program =
  lazy (Sema.lower_program (Corpus.large_program ~seed:42 ~target_stmts:600))

let fixed_progs =
  lazy (List.map (fun (n, s) -> (n, Sema.compile s)) Corpus.fixed_programs)

(* the example programs, by name without extension *)
let example_sources =
  lazy
    (let dir = "examples/c" in
     Sys.readdir dir |> Array.to_list
     |> List.filter (fun f -> Filename.check_suffix f ".c")
     |> List.sort compare
     |> List.map (fun f ->
            ( Filename.remove_extension f,
              In_channel.with_open_bin (Filename.concat dir f)
                In_channel.input_all )))

let dynamic_cycles asm (prog : Tree.program) =
  (Targets.run_text ~target:Backend.Vax ~max_steps:40_000_000 asm
     ~global_types:prog.Tree.globals ~entry:"main" [])
    .Simout.cycles

(* per target: the dense tables and both packed layouts, the profiled
   one around the fixed corpus's firing heat *)
let layouts =
  List.map
    (fun target ->
      ( target,
        lazy
          (let g = Lazy.force (Targets.backend_of target).Backend.default_grammar in
           let dense = Tables.build g in
           let profile = Targets.heat_profile target in
           (g, dense, profile, Packed.pack dense, Packed.pack ~profile dense)) ))
    Targets.all

let layout target = Lazy.force (List.assoc target layouts)

(* ============================================================================ *)
(* T-GRAM: grammar and table statistics (section 8, first paragraph)            *)
(* ============================================================================ *)

let grammar_stats () =
  section "T-GRAM: machine description and table statistics (paper section 8)";
  let schemas = Grammar_def.schemas Grammar_def.default in
  let g, dense, _, _, _ = layout Backend.Vax in
  let gs = Grammar.stats g in
  let ts = Tables.stats dense in
  row "generic schemas (pre-replication):    %d   (paper: 458)@."
    (List.length schemas);
  row "replicated productions:               %d   (paper: 1073)@."
    gs.Grammar.productions;
  row "terminals:                            %d   (paper: 219)@."
    gs.Grammar.terminals;
  row "non-terminals:                        %d   (paper: 148)@."
    gs.Grammar.nonterminals;
  row "parser states:                        %d   (paper: 2216)@."
    ts.Tables.states;
  row "replication growth factor:            %.2fx (paper: 2.34x)@."
    (ratio gs.Grammar.productions (List.length schemas));
  row "conflicts: %d shift/reduce, %d reduce/reduce, %d semantic ties@."
    ts.Tables.conflicts.Tables.shift_reduce
    ts.Tables.conflicts.Tables.reduce_reduce
    ts.Tables.conflicts.Tables.semantic_ties

(* ============================================================================ *)
(* T-REV: the reverse-operator ablation (section 5.1.3)                         *)
(* ============================================================================ *)

let reverse_ops () =
  section "T-REV: reverse binary operators ablation (paper section 5.1.3)";
  let with_r, dense, _, _, _ = layout Backend.Vax in
  let without_r =
    Grammar_def.grammar
      { Grammar_def.default with Grammar_def.reverse_ops = false }
  in
  let p_with = (Grammar.stats with_r).Grammar.productions in
  let p_without = (Grammar.stats without_r).Grammar.productions in
  let t_with = Tables.stats dense in
  let t_without = Tables.stats (Tables.build without_r) in
  row "grammar size:  %d -> %d productions (+%.0f%%)   (paper: +25%%)@."
    p_without p_with
    (pct (p_with - p_without) p_without);
  row
    "table size:    %d -> %d states (+%.0f%%), %d -> %d action entries \
     (+%.0f%%)   (paper: +60%%)@."
    t_without.Tables.states t_with.Tables.states
    (pct (t_with.Tables.states - t_without.Tables.states) t_without.Tables.states)
    t_without.Tables.action_entries t_with.Tables.action_entries
    (pct
       (t_with.Tables.action_entries - t_without.Tables.action_entries)
       t_without.Tables.action_entries);
  (* The paper's metric is how often the swaps "affected register
     allocation": compare the left-to-right register usage of each
     statement tree before and after the ordering phase.  (Swaps that
     only rearrange free operands change nothing.) *)
  let rec lr_usage (t : Tree.t) =
    match t with
    | Tree.Const _ | Tree.Fconst _ | Tree.Name _ | Tree.Temp _ | Tree.Dreg _
    | Tree.Autoinc _ | Tree.Autodec _ ->
      0
    | Tree.Indir (_, a) -> lr_usage a
    | Tree.Addr _ -> 1
    | Tree.Unop (_, _, e) | Tree.Conv (_, _, e) | Tree.Arg (_, e) ->
      max 1 (lr_usage e)
    | Tree.Binop (_, _, a, b)
    | Tree.Assign (_, a, b)
    | Tree.Rassign (_, a, b)
    | Tree.Cbranch (_, _, _, a, b, _) ->
      let held = if Phase1c.register_need a > 0 then 1 else 0 in
      max (max (lr_usage a) (lr_usage b + held)) 1
    | Tree.Call _ | Tree.Land _ | Tree.Lor _ | Tree.Lnot _ | Tree.Select _
    | Tree.Relval _ ->
      6
  in
  let trees body =
    List.filter_map (function Tree.Stree t -> Some t | _ -> None) body
  in
  let stmts = ref 0 and affected = ref 0 and swaps = ref 0 in
  List.iter
    (fun (f : Tree.func) ->
      let stats = Phase1c.fresh_stats () in
      let ctx = Gg_transform.Context.create f in
      let body = Gg_transform.Phase1a.run ctx f.Tree.body in
      let body = Gg_transform.Phase1b.run body in
      let before = trees body in
      let after = trees (Phase1c.run ~spill_guard:false ~stats ctx body) in
      stmts := !stmts + List.length before;
      swaps :=
        !swaps + stats.Phase1c.swapped_reverse + stats.Phase1c.reversed_assigns;
      List.iter2
        (fun b a -> if lr_usage b <> lr_usage a then incr affected)
        before after)
    (Lazy.force corpus_program).Tree.funcs;
  row "statements rewritten with reverse forms: %d of %d (%.1f%%)@." !swaps
    !stmts (pct !swaps !stmts);
  row
    "statements whose register usage changed: %d of %d (%.2f%%)   (paper: \
     <1%% of expressions)@."
    !affected !stmts (pct !affected !stmts)

(* ============================================================================ *)
(* T-MEM: table size and compression (sections 2, 6.4, 9)                        *)
(* ============================================================================ *)

let table_size () =
  section
    "T-MEM: table size (the CGGWS \"produced tables that were too large\", \
     section 2)";
  List.iter
    (fun target ->
      let _, _, _, packed, profiled = layout target in
      let ps = Packed.stats packed and fs = Packed.stats profiled in
      row "%-5s profile-free: %a@." (Targets.name target) Packed.pp_stats ps;
      row "%-5s profiled:     %d packed cells (%d KB), %.2fx@."
        (Targets.name target) fs.Packed.packed_cells
        (fs.Packed.packed_bytes / 1024)
        fs.Packed.ratio)
    Targets.all;
  row
    "(default reductions + comb packing: the period answer to the paper's \
     table-size concern; the type-replicated description pays for itself in \
     table rows, which is why section 9 reconsiders \"our decision to type \
     operands syntactically\")@."

(* ============================================================================ *)
(* T-SIZE: lines of assembly and code quality (section 8)                        *)
(* ============================================================================ *)

let code_size () =
  section
    "T-SIZE: code size and quality (paper: 11385 GG vs 11309 PCC lines, \
     ratio 1.007)";
  let prog = Lazy.force corpus_program in
  let gg = Driver.compile_program prog in
  let pcc = Pcc.compile_program prog in
  let gl = Driver.total_lines gg and pl = Pcc.total_lines pcc in
  row "lines of assembly:  GG %d   PCC %d   ratio %.3f   (paper: 1.007)@." gl
    pl (ratio gl pl);
  let gc = Driver.total_cycles gg and pc = Pcc.total_cycles pcc in
  row "static cycles:      GG %d   PCC %d   ratio %.3f@." gc pc (ratio gc pc);
  row "dynamic cycles (simulator), fixed benchmark programs:@.";
  let total_gg = ref 0 and total_pcc = ref 0 in
  List.iter
    (fun (name, prog) ->
      let cg = dynamic_cycles (Driver.compile_program prog).Driver.assembly prog in
      let cp = dynamic_cycles (Pcc.compile_program prog).Pcc.assembly prog in
      total_gg := !total_gg + cg;
      total_pcc := !total_pcc + cp;
      row "  %-12s GG %7d   PCC %7d   ratio %.3f@." name cg cp (ratio cg cp))
    (Lazy.force fixed_progs);
  row
    "  %-12s GG %7d   PCC %7d   ratio %.3f   (paper: GG as good or better in \
     almost all cases)@."
    "TOTAL" !total_gg !total_pcc
    (ratio !total_gg !total_pcc)

(* ============================================================================ *)
(* FIG3: instruction table and idiom recognition                                 *)
(* ============================================================================ *)

let idioms () =
  section "FIG3: idiom recognition (paper Fig. 3 and section 5.3.2)";
  let nm s = Tree.Name (Dtype.Long, s) in
  let c n = Tree.Const (Dtype.Long, n) in
  let show label tree =
    let asm =
      Driver.compile_tree tree
      |> List.map (fun i -> String.trim (Insn.assembly i))
      |> String.concat "; "
    in
    row "  %-24s ->  %s@." label asm
  in
  show "a = 17 + b"
    (Tree.Assign (Dtype.Long, nm "a", Tree.Binop (Op.Plus, Dtype.Long, c 17L, nm "b")));
  show "a = a + 17"
    (Tree.Assign (Dtype.Long, nm "a", Tree.Binop (Op.Plus, Dtype.Long, nm "a", c 17L)));
  show "a = a + 1"
    (Tree.Assign (Dtype.Long, nm "a", Tree.Binop (Op.Plus, Dtype.Long, nm "a", c 1L)));
  show "a = 0" (Tree.Assign (Dtype.Long, nm "a", c 0L));
  (* most idioms exchange a 3-operand for a 2-operand instruction, so
     the honest metric is operand/cycle cost, not line count *)
  let prog = Lazy.force corpus_program in
  let noidioms = { Driver.default_options with Driver.idioms = false } in
  let with_i = Driver.compile_program prog in
  let without_i = Driver.compile_program ~options:noidioms prog in
  let cw = Driver.total_cycles with_i and cwo = Driver.total_cycles without_i in
  row "corpus static cycles with idioms:    %d (%d lines)@." cw
    (Driver.total_lines with_i);
  row
    "corpus static cycles without idioms: %d (%d lines, +%.1f%% cycles; \
     still correct, as the paper notes)@."
    cwo
    (Driver.total_lines without_i)
    (pct (cwo - cw) cw);
  let dyn options =
    List.fold_left
      (fun a (_, p) ->
        a + dynamic_cycles (Driver.compile_program ~options p).Driver.assembly p)
      0 (Lazy.force fixed_progs)
  in
  let d_with = dyn Driver.default_options and d_without = dyn noidioms in
  row "fixed programs dynamic cycles: %d with idioms, %d without (+%.1f%%)@."
    d_with d_without
    (pct (d_without - d_with) d_with);
  (* how often the recogniser fires: count the short instruction forms *)
  let short_forms out =
    List.fold_left
      (fun acc (cf : Driver.compiled_func) ->
        List.fold_left
          (fun acc i ->
            match i with
            | Insn.Insn (m, _) ->
              let n = String.length m in
              let is p = n > String.length p && String.sub m 0 (String.length p) = p in
              if
                (n > 0 && m.[n - 1] = '2')
                || is "inc" || is "dec" || is "clr" || is "tst"
              then acc + 1
              else acc
            | _ -> acc)
          acc cf.Driver.cf_insns)
      0 out.Driver.funcs
  in
  row "short forms chosen by the idiom recogniser: %d of %d instructions \
       (vs %d without idioms)@."
    (short_forms with_i)
    (Driver.total_lines with_i)
    (short_forms without_i)

(* ============================================================================ *)
(* PEEP: the peephole alternative (section 6.1)                                   *)
(* ============================================================================ *)

let peephole () =
  section
    "PEEP: pairing the code generators with a peephole optimizer (section \
     6.1's alternative organisation)";
  let peep = { Driver.default_options with Driver.peephole = true } in
  let gg = ref 0 and gg_p = ref 0 and pcc = ref 0 and pcc_p = ref 0 in
  List.iter
    (fun (_, prog) ->
      let add r asm = r := !r + dynamic_cycles asm prog in
      add gg (Driver.compile_program prog).Driver.assembly;
      add gg_p (Driver.compile_program ~options:peep prog).Driver.assembly;
      add pcc (Pcc.compile_program prog).Pcc.assembly;
      add pcc_p (Pcc.compile_program ~peephole:true prog).Pcc.assembly)
    (Lazy.force fixed_progs);
  row "dynamic cycles over the fixed programs:@.";
  row "  table-driven:  %7d -> %7d with peephole (-%.1f%%)@." !gg !gg_p
    (pct (!gg - !gg_p) !gg);
  row "  PCC-style:     %7d -> %7d with peephole (-%.1f%%)@." !pcc !pcc_p
    (pct (!pcc - !pcc_p) !pcc);
  row
    "(the table-driven backend already avoids redundant tests via the \
     condition-code patterns of section 6.1, so the peephole finds less)@."

(* ============================================================================ *)
(* COV: production coverage                                                       *)
(* ============================================================================ *)

let coverage () =
  section "COV: grammar production coverage (completeness check)";
  let g = Driver.grammar (Lazy.force Driver.default_tables) in
  let n = Grammar.n_productions g in
  (* both corpora compiled for real; the fixed one is what `mdgtool
     heat` and the profiled tables count *)
  let _, _, profile, _, _ = layout Backend.Vax in
  let fixed = List.length profile.Heat.counts in
  row "fixed corpus (= `mdgtool heat`): %d of %d (%.0f%%)@." fixed n
    (pct fixed n);
  Profile.coverage_enabled := true;
  Profile.reset_coverage ();
  let compile prog = ignore (Driver.compile_program prog : Driver.output) in
  List.iter (fun (_, p) -> compile p) (Lazy.force fixed_progs);
  for seed = 1 to 30 do
    compile
      (Sema.lower_program
         (Corpus.program ~seed ~functions:3 ~stmts_per_function:10))
  done;
  (* the typed-tree corpus reaches the byte/word/float and conversion
     productions C's promotion rules bypass *)
  for seed = 1 to 60 do
    compile (Treegen.program ~seed ~stmts:30)
  done;
  compile (Lazy.force corpus_program);
  let fired = Heat.of_counts (Profile.production_counts ()) in
  Profile.reset_coverage ();
  Profile.coverage_enabled := false;
  let extended = List.length fired.Heat.counts in
  row
    "extended corpus (fixed + 30 Corpus + 60 Treegen + the 600-stmt \
     program): %d of %d (%.0f%%)@."
    extended n (pct extended n);
  row "a sample of productions the extended corpus never reduces by:@.";
  List.init n (Grammar.production g)
  |> List.filter (fun (p : Grammar.production) ->
         Heat.count fired p.Grammar.id = 0)
  |> List.iteri (fun i p ->
         if i < 8 then row "  %a@." (Grammar.pp_production g) p)

(* ============================================================================ *)
(* CHAIN: chain-rule reductions, and the share unit-rule elimination could skip *)
(* ============================================================================ *)

(* Replays each tree's trace over the packed tables to recover the state
   of every reduction, counting the chain-rule reductions and those made
   in a state whose every valid action is that same reduction: the
   states a constructor-time unit-rule elimination could bypass.  The
   trees are matched after Phase 1 with no semantics, as PROF does. *)
let chains () =
  section
    "CHAIN: chain-rule reductions on the fixed corpus (the bound on \
     unit-rule elimination)";
  List.iter
    (fun target ->
      let tables = Targets.default_tables target in
      let g = tables.Driver.grammar and packed = tables.Driver.packed in
      let symtab = g.Grammar.symtab in
      (* [only_reduce s c]: every valid action of state [s] has code [c] *)
      let memo = Hashtbl.create 256 in
      let only_reduce s c =
        match Hashtbl.find_opt memo (s, c) with
        | Some b -> b
        | None ->
          let b =
            List.for_all
              (fun a -> Packed.action_code packed s a = c)
              (Packed.expected packed s)
          in
          Hashtbl.add memo (s, c) b;
          b
      in
      let reductions = ref 0 and chains = ref 0 and bypassable = ref 0 in
      let replayed = ref true in
      let replay steps =
        (* [stack] holds the state under each value, top first *)
        let rec go state stack = function
          | [] | Matcher.Saccept :: _ -> ()
          | Matcher.Sshift name :: rest ->
            let c =
              Packed.action_code packed state
                (Gg_grammar.Symtab.term_id symtab name)
            in
            replayed := !replayed && c land 3 = 1;
            go (c lsr 2) (state :: stack) rest
          | Matcher.Sreduce id :: rest ->
            let p = Grammar.production g id in
            incr reductions;
            if
              Grammar.is_chain p
              && Gg_grammar.Action.equal p.Grammar.action Gg_grammar.Action.Chain
            then begin
              incr chains;
              if only_reduce state ((id lsl 2) lor 2) then incr bypassable
            end;
            (* pop the rhs; the state it exposes stays under the lhs *)
            let stack =
              List.filteri (fun i _ -> i >= Array.length p.Grammar.rhs - 1) stack
            in
            go (Packed.goto packed (List.hd stack) p.Grammar.lhs) stack rest
        in
        go 0 [] steps
      in
      let reds0 = (Profile.totals ()).Profile.reduces in
      let leaf_need = tables.Driver.backend.Backend.leaf_need in
      List.iter
        (fun (_, prog) ->
          List.iter
            (fun f ->
              let tr = Transform.run ~leaf_need f in
              List.iter
                (function
                  | Tree.Stree t ->
                    replay
                      (Matcher.run_tree ~trace:true ~grammar:g packed null_cb t)
                        .Matcher.trace
                  | _ -> ())
                tr.Transform.func.Tree.body)
            prog.Tree.funcs)
        (Lazy.force fixed_progs);
      row
        "%-5s %6d reductions, %6d by chain rules (%.1f%%), %6d of them in \
         states whose only action is that reduction (%.1f%% of chains)@."
        (Targets.name target) !reductions !chains (pct !chains !reductions)
        !bypassable (pct !bypassable !chains);
      (* the replay follows the matcher: every traced shift is a shift
         in the replayed state, and the reductions match the counter *)
      let ctrs = Profile.totals () in
      gate
        (Targets.name target ^ " CHAIN replay follows the matcher")
        (!replayed && ctrs.Profile.reduces = reds0 + !reductions))
    Targets.all

(* ============================================================================ *)
(* APPX: the Appendix shift/reduce trace                                          *)
(* ============================================================================ *)

let appendix () =
  section "APPX: shift/reduce actions for the Appendix example (a := 27 + b)";
  let tree =
    Tree.Assign
      ( Dtype.Long,
        Tree.Name (Dtype.Long, "a"),
        Tree.Binop
          ( Op.Plus, Dtype.Long,
            Tree.Const (Dtype.Byte, 27L),
            Tree.Conv
              ( Dtype.Long, Dtype.Byte,
                Tree.Indir
                  ( Dtype.Byte,
                    Tree.Binop (Op.Plus, Dtype.Long,
                                Tree.Const (Dtype.Long, -4L),
                                Tree.Dreg (Dtype.Long, Regconv.fp)) ) ) ) )
  in
  let insns, trace = Driver.compile_tree_traced tree in
  let g = Driver.grammar (Lazy.force Driver.default_tables) in
  row "%a@." (Matcher.pp_trace g) trace;
  row "emitted code:@.";
  List.iter (fun i -> row "%s@." (Insn.assembly i)) insns

(* ============================================================================ *)
(* RETARGET: the second machine description, measured against the first        *)
(* ============================================================================ *)

let retarget () =
  section
    "RETARGET: second backend (the paper's thesis is that the machine \
     description is the only target-specific artifact)";
  List.iter
    (fun target ->
      let g, dense, _, _, _ = layout target in
      let gs = Grammar.stats g in
      row
        "%-5s %4d productions  %3d terminals  %3d non-terminals  %4d states@."
        (Targets.name target) gs.Grammar.productions gs.Grammar.terminals
        gs.Grammar.nonterminals (Tables.stats dense).Tables.states)
    Targets.all;
  (* static and dynamic cost of the generated code on the fixed corpus,
     with every program executed under its target's simulator *)
  List.iter
    (fun target ->
      let tables = Targets.default_tables target in
      let bytes, insns, cycles =
        List.fold_left
          (fun (b, i, c) (_, p) ->
            let out = Driver.compile_program ~tables p in
            let sim =
              Targets.run_text ~target out.Driver.assembly
                ~global_types:p.Tree.globals ~entry:"main" []
            in
            ( b + String.length out.Driver.assembly,
              i + sim.Simout.insns_executed,
              c + sim.Simout.cycles ))
          (0, 0, 0) (Lazy.force fixed_progs)
      in
      row "%-5s fixed corpus: %6d asm bytes  %6d insns executed  %7d cycles@."
        (Targets.name target) bytes insns cycles)
    Targets.all

(* ============================================================================ *)
(* REGALLOC: graph coloring vs the stack discipline, cycle-model judged        *)
(* ============================================================================ *)

let regalloc () =
  section
    "REGALLOC: graph-coloring allocation vs the paper's on-the-fly stack \
     discipline over examples/c, judged by each target's cycle model";
  let progs =
    List.map (fun (n, s) -> (n, Sema.compile s)) (Lazy.force example_sources)
  in
  (* per (target, allocator): total simulated cycles across the corpus
     and spill/reload counts from the metrics registry *)
  let measure target regalloc =
    let tables = Targets.default_tables target in
    let options = { Driver.default_options with Driver.regalloc } in
    Metrics.enabled := true;
    Metrics.reset ();
    let outs =
      List.map (fun (_, p) -> Driver.compile_program ~options ~tables p) progs
    in
    let spills = counter "codegen.spills_total" in
    let reloads = counter "codegen.reloads_total" in
    Metrics.reset ();
    Metrics.enabled := false;
    let cycles =
      List.fold_left2
        (fun acc (_, p) out ->
          acc
          + (Targets.run_text ~target out.Driver.assembly
               ~global_types:p.Tree.globals ~entry:"main" [])
              .Simout.cycles)
        0 progs outs
    in
    row "%-5s %-5s %7d cycles  %3d spills  %3d reloads@." (Targets.name target)
      (match regalloc with Driver.Stack -> "stack" | Driver.Color -> "color")
      cycles spills reloads;
    cycles
  in
  List.iter
    (fun target ->
      let stack = measure target Driver.Stack in
      let color = measure target Driver.Color in
      row "%-5s color/stack cycles: %.4fx@." (Targets.name target)
        (ratio color stack);
      gate (Targets.name target ^ ": color cycles <= stack cycles") (color <= stack))
    Targets.all

(* ============================================================================ *)
(* SPECIALIZE: profile-guided table layout                                      *)
(* ============================================================================ *)

let specialize () =
  section
    "SPECIALIZE: profile-guided table layout (hot states comb-packed first, \
     cold states behind an exact fallback; the assembly must stay \
     byte-identical, only probe locality changes)";
  (* every program is compiled with and without the profile and
     byte-compared: examples/c, the fixed suite and 200 generated ones *)
  let parity_progs =
    List.map
      (fun (_, s) -> Sema.compile s)
      (Corpus.fixed_programs @ Lazy.force example_sources)
    @ List.init 200 (fun seed ->
          Sema.lower_program
            (Corpus.program ~seed ~functions:2 ~stmts_per_function:8))
  in
  List.iter
    (fun target ->
      let name = Targets.name target in
      let b = Targets.backend_of target in
      let g, dense, _, packed, profiled = layout target in
      let verified =
        match Packed.verify profiled dense with
        | Ok () -> true
        | Error m ->
          Fmt.epr "%s: verification failed: %s@." name m;
          false
      in
      let tables_of packed = { Driver.grammar = g; packed; backend = b } in
      let base = tables_of packed and spec = tables_of profiled in
      let identical =
        List.for_all
          (fun prog ->
            (Driver.compile_program ~tables:base prog).Driver.assembly
            = (Driver.compile_program ~tables:spec prog).Driver.assembly)
          parity_progs
      in
      (* the probe split on the training corpus: the fixed programs the
         profile was collected from *)
      Metrics.enabled := true;
      Metrics.reset ();
      List.iter
        (fun (_, src) ->
          List.iter
            (fun f ->
              let tr = Transform.run ~leaf_need:b.Backend.leaf_need f in
              List.iter
                (function
                  | Tree.Stree t ->
                    ignore (Matcher.run_tree ~grammar:g profiled null_cb t)
                  | _ -> ())
                tr.Transform.func.Tree.body)
            (Sema.compile src).Tree.funcs)
        Corpus.fixed_programs;
      let hot = counter "matcher.probe_hits_hot" in
      let cold = counter "matcher.probe_hits_cold" in
      Metrics.reset ();
      Metrics.enabled := false;
      let ps = Packed.stats packed and fs = Packed.stats profiled in
      row "[%s]@." name;
      row "  verified cell-for-cell:   %b@." verified;
      row "  assembly byte-identical:  %b  (%d programs)@." identical
        (List.length parity_progs);
      row "  hot states:               %d of %d@." fs.Packed.hot_states
        fs.Packed.states;
      row "  table bytes:              %d -> %d  (delta %+d)@."
        ps.Packed.packed_bytes fs.Packed.packed_bytes
        (fs.Packed.packed_bytes - ps.Packed.packed_bytes);
      row "  probe split:              %d hot, %d cold@." hot cold;
      gate (name ^ ": profiled tables verified") verified;
      gate (name ^ ": assembly byte-identical with the profile") identical;
      gate (name ^ ": profiled bytes <= profile-free bytes")
        (fs.Packed.packed_bytes <= ps.Packed.packed_bytes);
      gate (name ^ ": hot probes > cold probes") (hot > cold))
    Targets.all

(* ============================================================================ *)
(* THRU: -j determinism                                                          *)
(* ============================================================================ *)

let determinism () =
  section "THRU: -j determinism (the 600-statement program)";
  let prog = Lazy.force corpus_program in
  (* real multi-domain batches, oversubscribed past the core clamp, so
     the identity holds on any host *)
  let asm j =
    (Driver.compile_program ~jobs:j ~oversubscribe:true prog).Driver.assembly
  in
  let a1 = asm 1 in
  let identical = a1 = asm 4 && a1 = asm 8 in
  Parallel.shutdown ();
  row "-j 4 and -j 8 assembly byte-identical to -j 1: %b@." identical;
  gate "-j 4 and -j 8 assembly identical to -j 1" identical

(* ============================================================================ *)

let () =
  Fmt.pr "Table-driven code generation: exact report@.";
  List.iter
    (fun f -> f ())
    [
      grammar_stats; reverse_ops; table_size; code_size; idioms; peephole;
      coverage; chains; appendix; retarget; regalloc; specialize; determinism;
    ];
  match List.rev !failed with
  | [] -> ()
  | gates ->
    List.iter (Fmt.epr "report: gate failed: %s@.") gates;
    exit 1
